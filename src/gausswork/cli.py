"""Command-line interface.

Subcommands: sample, sweep, moments, validate, purify.  Exit codes:
0 success, 1 validation failure (``validate`` only), 2 invalid input or
configuration, 3 numerical failure or a dead worker process.  Exit code 2
covers unreadable or malformed input files (covariance, config and
``file:`` profile files), non-finite inputs, negative seeds, empty lists,
``--lipschitz-pairs`` or ``--threads`` below 1, a ``sweep --out`` path
ending in ``.csv`` (the records go to that path with a .csv suffix) and
output paths that cannot be written; ``validate --cov`` reports a
covariance matrix that breaks an invariant, non-finite entries included,
with exit code 1.  New or plain regular output files are written to
temporary files and renamed into place once all are complete,
so a failed run leaves no half-written output; see ``_write_files``.

A key=value config file can be passed with --config; explicit flags
override file entries.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import stat
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import harness, phasespace, validate, weingarten
from .errors import GaussworkError, InvalidConfig, MalformedFile
from .sampling import RandomStateConfig, ZProfile
from .stats import CSV_COLUMNS, record_rows


def _number_list(text: str, convert, kind: str) -> list:
    try:
        values = [convert(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise InvalidConfig(f"expected a comma-separated {kind} list, got {text!r}")
    return values


def _int_list(text: str) -> list[int]:
    return _number_list(text, int, "integer")


def _float_list(text: str) -> list[float]:
    return _number_list(text, float, "float")


def load_config_file(path: str) -> dict[str, str]:
    """Read a key=value config file; '#' starts a comment line."""
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfig(f"cannot read config file {path}: {exc}") from exc
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise InvalidConfig(f"config line is not key=value: {raw!r}")
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


class Option(NamedTuple):
    """One ``--flag`` of a subcommand, also accepted as a config-file key.

    A required option has no default; it must be given as a flag or in the
    config file.
    """

    convert: Callable[[str], object]
    default: object = None
    help: str | None = None
    required: bool = False
    choices: tuple[str, ...] | None = None

    def help_text(self) -> str | None:
        if self.default is None:
            return self.help
        shown = self.default
        if isinstance(shown, tuple):
            shown = ",".join(map(str, shown))
        return f"{self.help} (default {shown})" if self.help else f"(default {shown})"


def _write_output(path: str | None, text: str) -> None:
    """Write ``text`` to stdout, or to the file ``path``."""
    if path is None:
        sys.stdout.write(text)
    else:
        _write_files({path: text})


def _write_files(files: dict[str, str]) -> None:
    """Write each ``{path: text}`` entry.  A new file, or a regular file of
    ours with one link, is replaced by a temporary file from the same
    directory, given its mode, once every entry is complete, so a failure
    renames none of them into place.  Any other path (a symlink, FIFO,
    device, hard link or another owner's file) is written in place, because
    a rename would replace it rather than write to it."""
    staged = []
    try:
        for path, text in files.items():
            try:
                old = os.lstat(path)
            except OSError:
                old = None
            if old is not None and (
                not stat.S_ISREG(old.st_mode) or old.st_nlink != 1
                or (old.st_uid, old.st_gid) != (os.geteuid(), os.getegid())
            ):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                continue
            tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
            staged.append((tmp, path))
            tmp.write_text(text, encoding="utf-8")
            if old is not None:
                os.chmod(tmp, stat.S_IMODE(old.st_mode))
        for tmp, path in staged:
            os.replace(tmp, path)
    except OSError as exc:
        for tmp, _ in staged:
            with contextlib.suppress(OSError):
                tmp.unlink()
        raise InvalidConfig(f"cannot write {path}: {exc}") from exc


def _read_covariance(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return phasespace.read_covariance_text(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedFile(f"cannot read {path}: {exc}") from exc


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _state_config(opts: dict) -> RandomStateConfig:
    return RandomStateConfig(
        n_full=opts["n"],
        m_sys=opts["m"],
        profile=ZProfile.parse(opts["z_profile"]),
        master_seed=opts["seed"],
        pipeline=opts["pipeline"],
    )


def cmd_sample(opts: dict) -> int:
    config = _state_config(opts)
    if opts["format"] == "csv":
        _, text = harness.compute_records(config, opts["samples"], opts["threads"], return_csv=True)
    elif opts["format"] == "json":
        records = harness.compute_records(config, opts["samples"], opts["threads"])
        text = _json_text([dict(zip(CSV_COLUMNS, row)) for row in record_rows(records, config)])
    else:
        raise InvalidConfig(f"format must be 'csv' or 'json', got {opts['format']!r}")
    _write_output(opts["out"], text)
    return 0


def cmd_sweep(opts: dict) -> int:
    out = opts["out"]
    if out is not None:
        # the summary goes to out, the records to out with a .csv suffix
        path = Path(out)
        csv_path = path.with_suffix(".csv") if path.name else path
        if csv_path == path:
            raise InvalidConfig(f"sweep --out {out!r} leaves no separate path for the CSV records")
    sweep = functools.partial(
        harness.run_sweep,
        n_grid=opts["n_grid"],
        m_sys=opts["m"],
        profile=ZProfile.parse(opts["z_profile"]),
        samples=opts["samples"],
        master_seed=opts["seed"],
        pipeline=opts["pipeline"],
        epsilons=opts["epsilon"],
        threads=opts["threads"],
    )
    if out is None:
        _, summary = sweep()
        sys.stdout.write(_json_text(summary))
    else:
        _, summary, csv_text = sweep(return_csv=True)
        _write_files({out: _json_text(summary), str(csv_path): csv_text})
    return 0


def cmd_moments(opts: dict) -> int:
    config = _state_config(opts)
    reports = weingarten.mc_moments(config, opts["samples"], opts["threads"])
    _write_output(opts["out"], _json_text(reports))
    return 0


def cmd_validate(opts: dict) -> int:
    if opts["cov"] is not None:
        result = validate.validate_covariance_matrix(_read_covariance(opts["cov"]))
        if result.ok:
            print(f"ok {result.name}")
            return 0
        print(f"FAIL {result.name}: {result.detail}", file=sys.stderr)
        return 1
    results = validate.run_suite(
        seed=opts["seed"], sizes=tuple(opts["sizes"]), lipschitz_pairs=opts["lipschitz_pairs"]
    )
    failed = [r for r in results if not r.ok]
    for r in results:
        print(f"ok {r.name}" if r.ok else f"FAIL {r.name}: {r.detail}")
    if failed:
        print(f"first failing assertion: {failed[0].name}", file=sys.stderr)
        return 1
    return 0


def cmd_purify(input_path: str, output_path: str) -> int:
    # purify checks the input and the round trip and purity of its result
    pure = phasespace.purify(_read_covariance(input_path))
    text = io.StringIO()
    phasespace.write_covariance_text(pure, text)
    _write_output(output_path, text.getvalue())
    return 0


_STATE_OPTIONS = {
    "m": Option(int, 1, "kept system modes"),
    "z_profile": Option(
        str, help="vacuum | uniform:<z0> | power:<beta> | flat:<E> | file:<path>", required=True
    ),
    "samples": Option(int, help="samples per grid point", required=True),
    "seed": Option(int, 0, "master seed"),
    "pipeline": Option(str, "purified", "purified samples 2n ambient modes, the draws of "
                       "direct at 2n, with n_modes_full = n", choices=("direct", "purified")),
    "threads": Option(int, 1, "processes, this one included"),
    "out": Option(str, help="output path (default stdout)"),
}
_N_OPTION = Option(int, help="full system modes before tracing", required=True)


# subcommand -> (handler, summary, shared options, own options).  --help
# lists the shared options before the command's own; a missing-option
# message lists the command's own first.
_COMMANDS = {
    "sample": (cmd_sample, "emit one record per sampled state", _STATE_OPTIONS, {
        "n": _N_OPTION,
        "format": Option(str, "csv", choices=("csv", "json")),
    }),
    "sweep": (cmd_sweep, "n-grid sweep with tail table and slope fit", _STATE_OPTIONS, {
        "n_grid": Option(_int_list, help="e.g. 16,32,64", required=True),
        "epsilon": Option(_float_list, harness.DEFAULT_EPSILONS, "tail thresholds, e.g. 0.05,0.1"),
    }),
    "moments": (cmd_moments, "analytic vs Monte Carlo moment table", _STATE_OPTIONS, {
        "n": _N_OPTION,
    }),
    "validate": (cmd_validate, "run the invariant self-checks", {}, {
        "seed": Option(int, 2024),
        "sizes": Option(_int_list, (2, 4, 8), "mode counts, e.g. 2,4,8"),
        "lipschitz_pairs": Option(int, 1000),
        "cov": Option(str, help="validate one covariance text file instead"),
    }),
}


def _resolve_options(args: argparse.Namespace) -> dict:
    _, _, shared, own = _COMMANDS[args.command]
    options = {**own, **shared}
    file_entries = load_config_file(args.config) if args.config else {}
    unknown = set(file_entries) - set(options)
    if unknown:
        raise InvalidConfig(f"unknown config keys for {args.command}: {sorted(unknown)}")
    resolved = {}
    for dest, option in options.items():
        value = getattr(args, dest)
        if value is None and dest in file_entries:
            try:
                value = option.convert(file_entries[dest])
            except GaussworkError:
                raise
            except ValueError as exc:
                raise InvalidConfig(f"config key {dest}: {exc}") from exc
        resolved[dest] = option.default if value is None else value
    missing = [dest for dest, opt in options.items() if opt.required and resolved[dest] is None]
    if missing:
        flags = ", ".join("--" + dest.replace("_", "-") for dest in missing)
        raise InvalidConfig(f"missing required option(s): {flags}")
    return resolved


_COMMAND_NAMES = (*_COMMANDS, "purify")


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone."""
    parser = argparse.ArgumentParser(
        prog="gausswork",
        description="Monte Carlo laboratory for extractable-work statistics "
        "of random energy-bounded Gaussian states.",
    )
    # a parser of one command shows the full command list in its usage, as
    # the full parser does; it cannot raise the errors that would name it
    sub = parser.add_subparsers(dest="command", required=True, metavar=None if command is None
                                else "{" + ",".join(_COMMAND_NAMES) + "}")
    for name, (handler, summary, shared, own) in _COMMANDS.items():
        if command not in (None, name):
            continue  # a short command does not pay for building the others
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="key=value config file; flags override")
        for dest, option in {**shared, **own}.items():
            p.add_argument(
                "--" + dest.replace("_", "-"),
                type=option.convert,
                choices=option.choices,
                help=option.help_text(),
            )
        p.set_defaults(fn=lambda args, handler=handler: handler(_resolve_options(args)))

    if command in (None, "purify"):
        p_purify = sub.add_parser("purify", help="purify a covariance text file")
        p_purify.add_argument("input", help="input covariance file")
        p_purify.add_argument("output", help="output covariance file")
        p_purify.set_defaults(fn=lambda args: cmd_purify(args.input, args.output))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a known command gets its own parser; anything else (--help, no
    # arguments, an unknown command) the full one, which lists them all
    command = argv[0] if argv and argv[0] in _COMMAND_NAMES else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.fn(args)
    except GaussworkError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
