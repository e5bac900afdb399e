"""The CLI's user-visible surface, frozen.

``tests/fixtures/cli_surface.json`` lists, for the top-level parser and for
every subcommand in registration order, each option's option strings,
default, type name, choices, action class, nargs, metavar and help (a
positional is named by the word ``--help`` shows for it).  ``dest`` is
internal and not recorded, so the parser may rename where a flag lands
but never what a user types, sees or gets by default.

Regenerate only for an intended surface change, and record the parent
commit's parser so the fixture diff shows the change::

    PYTHONPATH=<parent>/src python tests/test_cli_surface.py --write
"""

import argparse
import json
import pathlib
import sys

from repro.cli import build_parser

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "cli_surface.json"


def _action(action: argparse.Action) -> dict:
    return {
        "option_strings": list(action.option_strings),
        "positional": None if action.option_strings else action.dest,
        "default": action.default,
        "type": None if action.type is None else action.type.__name__,
        "choices": None if action.choices is None else list(action.choices),
        "action": type(action).__name__,
        "nargs": action.nargs,
        "metavar": action.metavar,
        "help": action.help,
    }


def surface() -> dict:
    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    helps = {a.dest: a.help for a in subparsers._choices_actions}
    return {
        "prog": parser.prog,
        "description": parser.description,
        "epilog": parser.epilog,
        "subcommands": [
            {
                "name": name,
                "help": helps.get(name),
                "options": [_action(a) for a in sub._actions],
            }
            for name, sub in subparsers.choices.items()
        ],
    }


def test_parser_surface_matches_the_fixture():
    assert surface() == json.loads(FIXTURE.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_cli_surface.py --write")
    FIXTURE.write_text(json.dumps(surface(), indent=2) + "\n")
    print(f"wrote {FIXTURE}")
