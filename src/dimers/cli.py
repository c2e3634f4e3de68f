"""Command-line surface.

Subcommands: count, enumerate, components, flipfree, census, twist,
pfaffian, sample, slab, ideals, render.  Every run writes a JSON manifest
(command, region, seeds, calibration ids, wall time) so outputs can be
reproduced bit for bit.  Exit codes: 2 usage, 3 caps and guards,
4 a twist that is not an integer or a trit step other than +-1.

This module holds what every run uses: the top-level parser, --config,
the manifest, the exit codes, and each subcommand's name, help and
module.  The subcommands live in `dimers.commands`, grouped by the
library module they drive.  A launch imports only the module of the
subcommand that runs (or prints its help), which builds that parser's
arguments, and each handler imports the library modules it runs.  So a
`count` loads the region layer and the profile DP, but never `core`'s
tiling layer, the twist, moves or enumeration modules, the sampler,
slabs, ideals, fractions, csv or sqlite3; the manifest's calibration
constants are a literal here.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from importlib import import_module
from pathlib import Path

from . import __version__
from .errors import CalibrationError, CapExceeded, DimersError, WidthGuardExceeded
from .regions import open_text

EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_CALIBRATION = 4


def _manifest_path(value: str | None) -> Path:
    """The manifest's path, refused before any work when it names no file
    that can be written."""
    if value == "":
        raise DimersError("--manifest needs a file path")
    path = Path(value or "run_manifest.json")
    if path.is_dir():
        raise DimersError(f"--manifest {path}: is a directory")
    if not path.parent.is_dir():
        raise DimersError(f"--manifest {path}: {path.parent} is not a directory")
    return path


# twist.calibration().as_dict(), written out so that writing a manifest
# loads no twist module (a test pins the two equal)
_CALIBRATION = {"kappa": "1/8", "sign": 1, "kasteleyn_rule": "x:+1 y:(-1)^x z:(-1)^(x+y)"}


def _write_manifest(path: Path, argv: list[str], args, extra: dict, started: float) -> None:
    record = {
        "command": args.command,
        "argv": argv,
        "version": __version__,
        "region": extra.pop("region", None),
        "seed": getattr(args, "seed", None),
        "calibration": _CALIBRATION,
        "wall_time_s": round(time.time() - started, 3),
    }
    record.update(extra)
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")



class _Subcommand:
    """A subcommand's parser, built with its arguments the first time it
    parses (or prints its help), by the builder of the module that runs
    the subcommand, so that a launch imports and builds only the
    subcommand that runs.  `add_subparsers(parser_class=...)` creates one
    per subcommand name; argparse calls nothing of it but
    parse_known_args."""

    def __init__(self, command, **kwargs):
        self._command = command
        self._kwargs = kwargs
        self._parser = None

    def parse_known_args(self, args=None, namespace=None):
        if self._parser is None:
            self._parser = argparse.ArgumentParser(**self._kwargs)
            add_arguments, _ = _command(self._command)
            add_arguments(self._parser)
        return self._parser.parse_known_args(args, namespace)


# name, help and module under dimers.commands of each subcommand, in usage
# order
_SUBCOMMANDS = (
    ("count", "exact tiling count", "count"),
    ("enumerate", "write every tiling to a JSONL file", "explore"),
    ("components", "flip component census", "explore"),
    ("flipfree", "tilings with no flips", "explore"),
    ("census", "tiling count per twist value", "explore"),
    ("twist", "twist of tilings from a file", "twist"),
    ("pfaffian", "Kasteleyn alternating-sum determinant", "twist"),
    ("sample", "MCMC sampling", "sample"),
    ("slab", "slab tilings and the triple twist", "slab"),
    ("ideals", "export flip/tiling ideal generators", "ideals"),
    ("render", "floor diagram of tilings", "render"),
)
_MODULES = {name: module for name, _, module in _SUBCOMMANDS}


def _command(name: str) -> tuple:
    """(argument builder, handler) of a subcommand, from its module."""
    return import_module(f"dimers.commands.{_MODULES[name]}").COMMANDS[name]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimers",
        description="domino tilings of boxes: exact counts, moves, twist",
    )
    parser.add_argument("--manifest", help="manifest path (default run_manifest.json)")
    parser.add_argument("--config", help="key=value config file; flags win")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, help_text, _ in _SUBCOMMANDS:
        sub.add_parser(name, help=help_text, command=name)
    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Insert key=value pairs from --config as flags right after the
    command's words (`count`, `slab census`); explicit flags win because
    argparse takes the last occurrence."""
    for at, token in enumerate(argv):
        if token.partition("=")[0] == "--config":
            path = token[len("--config="):] if "=" in token else "".join(argv[at + 1 : at + 2])
            break
    else:
        return argv
    if not path:
        raise DimersError("--config needs a file path")
    extra = []
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        extra.append(f"--{key.strip()}")
        if value.strip():
            extra.append(value.strip())
    # skip the top-level flags and their values, then the command's words:
    # no subcommand takes a positional argument
    at = 0
    while at < len(argv) and argv[at].startswith("-"):
        at += 2 if argv[at] in ("--manifest", "--config") else 1
    while at < len(argv) and not argv[at].startswith("-"):
        at += 1
    return argv[:at] + extra + argv[at:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
        args = build_parser().parse_args(argv)
        manifest = _manifest_path(args.manifest)
        started = time.time()
        extra = _command(args.command)[1](args)
        _write_manifest(manifest, argv, args, extra, started)
    except (CapExceeded, WidthGuardExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except (DimersError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return 0


if __name__ == "__main__":
    sys.exit(main())

