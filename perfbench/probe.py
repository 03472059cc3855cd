"""Machine-speed probe, run as its own interpreter: ``python3 perfbench/probe.py``.

It pays the fixed cost of a CLI call with no graphsym code: start an
interpreter and import a fixed set of standard modules, about as much code
as importing ``graphsym.cli`` loads.  ``run.py`` times it twice a round and
scales its end-to-end times by the probe's median, so that a run on a host
that is busy elsewhere reads about the same as one on a quiet host, while a
change to graphsym, which the probe never loads, shows in full.
"""

# Loading modules (reading, unmarshalling and executing their code) is what
# every CLI call starts with.  Across runs on a shared host its time followed
# the CLI times more closely than that of a pure-Python graph loop did.
import argparse  # noqa: F401
import csv  # noqa: F401
import dataclasses  # noqa: F401
import decimal  # noqa: F401
import email.parser  # noqa: F401
import enum  # noqa: F401
import fractions  # noqa: F401
import http.client  # noqa: F401
import inspect  # noqa: F401
import json  # noqa: F401
import logging  # noqa: F401
import pathlib  # noqa: F401
import random  # noqa: F401
import statistics  # noqa: F401
import typing  # noqa: F401
import unittest  # noqa: F401
import urllib.request  # noqa: F401
import xml.etree.ElementTree  # noqa: F401
import zipfile  # noqa: F401
