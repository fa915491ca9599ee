"""The full parser is the oracle of the lazy one.

main() builds a parser that declares the flags of the command it runs and
no other. Every parse that main() makes in a test is checked here against
build_parser() with every command's flags: the same Namespace (handler
included), or the same exit code, stdout and stderr.
"""

import argparse
import contextlib
import io

import pytest

from levelscope import cli


def _parse_outcome(parser: argparse.ArgumentParser, argv: list[str]) -> tuple:
    """(repr of the Namespace or None, exit code or None, stdout, stderr) of
    one parse by argparse.ArgumentParser.parse_args itself, so a wrapper set
    on the parser is not called. The repr holds the handler's address, and
    unlike == it finds a nan flag equal to itself."""
    out, err = io.StringIO(), io.StringIO()
    args = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = argparse.ArgumentParser.parse_args(parser, argv)
        except SystemExit as exc:
            code = exc.code
    return args and repr(args), code, out.getvalue(), err.getvalue()


@pytest.fixture
def parse_outcome():
    return _parse_outcome


@pytest.fixture(autouse=True)
def _lazy_parser_matches_full_parser(monkeypatch):
    build_parser = cli.build_parser

    def checked(command=None):
        parser = build_parser(command)
        if command is not None:
            def parse_checked(argv):
                assert (_parse_outcome(parser, argv)
                        == _parse_outcome(build_parser(), argv)), argv
                return argparse.ArgumentParser.parse_args(parser, argv)

            parser.parse_args = parse_checked
        return parser

    monkeypatch.setattr(cli, "build_parser", checked)
