"""The CLI surface contract: every subcommand's options, pinned.

``cli_contract.json`` records, for each subparser of
:func:`repro.cli.build_parser`, every option's strings, dest, action,
default, choices, nargs, type and ``required`` flag (help text and
declaration order are free to change).  A refactor of the flag
declarations must leave it identical; a deliberate surface change
regenerates it with ``PYTHONPATH=src python tests/core/test_cli_contract.py``
and shows up in review as a diff of that file.
"""

import argparse
import json
import pathlib

from repro.cli import build_parser

CONTRACT = pathlib.Path(__file__).with_name("cli_contract.json")


def _describe(action: argparse.Action) -> list:
    return [
        type(action).__name__,
        action.dest,
        action.default,
        list(action.choices) if action.choices is not None else None,
        action.nargs,
        getattr(action.type, "__name__", None),
        action.required,
    ]


def surface() -> dict:
    parser = build_parser()
    (sub,) = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        name: {
            ("/".join(a.option_strings) or a.dest): _describe(a)
            for a in command._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, command in sub.choices.items()
    }


def render(snapshot: dict) -> str:
    """One option per line, so a surface change reads as a small diff."""
    blocks = []
    for name in sorted(snapshot):
        options = snapshot[name]
        rows = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(options[key])}"
            for key in sorted(options)
        )
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def test_cli_surface_matches_the_committed_contract():
    current = json.loads(json.dumps(surface()))
    assert current == json.loads(CONTRACT.read_text())


def test_contract_file_is_in_canonical_form():
    assert CONTRACT.read_text() == render(json.loads(CONTRACT.read_text()))


if __name__ == "__main__":  # regenerate after a deliberate surface change
    print(render(surface()), end="")
