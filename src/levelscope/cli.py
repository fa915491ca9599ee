"""Command-line front end: a dispatcher over a table of commands.

COMMANDS maps each command to its help text and to the module that declares
its flags and runs it:

    cli_closed  criterion  one level's y(n) verdict for a closed-system model
                scan       criterion table over a range of n, with threshold footer
    cli_open    evolve     Fock-level populations of the diffusive mixture over time
                fidelity   neighbor fidelity F(b, t) curves
                ymean      environment-averaged criterion <y(b)> curves
                figures    canned curve families (1: fidelity, 2: survival,
                           3: <y(b)> at omega/lam = 0.10, 4: omega/lam = 10)

main() imports only the module of the command it runs, so a cold process
compiles this dispatcher, that command's code and the library modules it
needs; cli_files, the manifest and the CSV/JSON writers, loads only in the
commands that write files. No levelscope module imports this one: under
`python -m levelscope.cli` that import would compile cli.py a second time.

Data files are UTF-8 CSV with a `#`-prefixed manifest header (or a JSON
mirror of the same records via --format json); figure commands also emit a
minimal SVG. Identical flags produce byte-identical data files: floats use a
fixed format and the manifest timestamp honors SOURCE_DATE_EPOCH.

Exit codes: 0 success; 2 any ValueError: bad arguments, out-of-domain
request (an evolve row whose level cut passes 1,000,000 levels included), a
missing or unreadable --preset, a SOURCE_DATE_EPOCH outside 0..253402300799;
4 any OSError: an output file or directory, or stdout, that cannot be written.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from . import __version__

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 4

# command -> (help text, module under levelscope that declares its flags
# with add_arguments(command, subparser) and sets its handler as `func`)
COMMANDS = {
    "criterion": ("y(n) verdict for one level", "cli_closed"),
    "scan": ("criterion table over a range of n", "cli_closed"),
    "evolve": ("Fock populations over time", "cli_open"),
    "fidelity": ("neighbor fidelity curves", "cli_open"),
    "ymean": ("<y(b)> curves", "cli_open"),
    "figures": ("canned figure-analog data", "cli_open"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command or, given a command, one that lists every
    command but declares the flags of that one alone, so only its module
    loads. Either parses that command's argv to the same Namespace. Any
    other string declares no command's flags: argv that name no command
    (--help, --version, none or an unknown one) need none of them."""
    parser = argparse.ArgumentParser(
        prog="levelscope",
        description="Classical measurability of discrete spectra and its decay under diffusion.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, module) in COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        if command is None or command == name:
            # __import__, unlike importlib.import_module, shows the module
            # under -X importtime; with a fromlist it returns the submodule.
            handlers = __import__(f"{__package__}.{module}", fromlist=("add_arguments",))
            handlers.add_arguments(name, sub)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The command is the first token that is not an option: the top-level
    # parser has no option that takes a value. Without one, or with a typo,
    # no subparser runs, so the parser declares no command's flags.
    command = next((token for token in argv if not token.startswith("-")), "")
    parser = build_parser(command)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


def _flush_stdout() -> bool:
    """Flush stdout; False, with the error reported, if it cannot be written.

    A failed flush keeps its data buffered, so fd 1 is then pointed at
    devnull, as the signal module's note on SIGPIPE advises: the
    interpreter's own flush at exit would otherwise fail again and turn the
    exit code into 120.
    """
    if sys.stdout is None:  # started with fd 1 closed: print wrote nothing
        return True
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


def run() -> None:
    """Entry point of the console script and of `python -m levelscope.cli`:
    main(), then exit with its code, or 4 if stdout cannot be written.

    The heap is frozen on the way out, so the collections of interpreter
    shutdown skip every object still alive: the CLI leaves no cyclic
    garbage for them to reclaim, and module teardown, deallocation and the
    std-stream flush still run. main() does not freeze, since tests and the
    benchmark harness call it in processes that go on running.
    """
    import gc

    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse: --help, --version, usage errors
            code = exc.code
        raise SystemExit(code if _flush_stdout() else EXIT_IO)
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
