#!/usr/bin/env python3
"""Print the size of dpboost's source and every value a user can set.

    python3 scripts/surface.py

Run from a checkout; the package is imported from its ``src/``. The first
line is the line count of ``src/``. Then come the settable values of the
eight library modules, one per line:

* dataclass fields that have a default;
* parameters with a default of public functions and public methods
  (classmethods included);
* the flags of the ``dpboost`` command line.

The last line is their count.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import importlib
import inspect
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
MODULES = ("baselines", "boosting", "cli", "data", "harness", "model", "noise", "toy")


def src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "dpboost", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def _defaulted(fn) -> list[str]:
    params = inspect.signature(fn).parameters.values()
    return [p.name for p in params if p.default is not inspect.Parameter.empty]


def settable_values() -> list[str]:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    values = []
    for name in MODULES:
        module = importlib.import_module(f"dpboost.{name}")
        for attr, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            where = f"{name}.{attr}"
            if inspect.isfunction(obj) and not attr.startswith("_"):
                values += [f"{where}({p})" for p in _defaulted(obj)]
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    for f in dataclasses.fields(obj):
                        if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING:
                            values.append(f"{where}.{f.name}")
                for meth, member in vars(obj).items():
                    fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                    if inspect.isfunction(fn) and not meth.startswith("_"):
                        values += [f"{where}.{meth}({p})" for p in _defaulted(fn)]
    cli = importlib.import_module("dpboost.cli")
    for action in cli.build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command, sub in action.choices.items():
                for a in sub._actions:
                    if a.option_strings and not isinstance(a, argparse._HelpAction):
                        values.append(f"dpboost {command} {a.option_strings[0]}")
    return values


def main() -> int:
    print(f"src lines: {src_lines()}")
    values = settable_values()
    for value in values:
        print(f"  {value}")
    print(f"settable values: {len(values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
