"""Docs-surface lint: every user-facing surface must be documented.

Enumerate the CLI verbs from the real argument parser and the HTTP
endpoints from the serving layer's declarative route table, then fail
if any of them is missing from the user documentation (README.md +
docs/). New surface area cannot land undocumented — CI runs this in
the serving job. In the reverse direction, README.md, docs/ and
DESIGN.md may not advertise a verb, endpoint or ``--flag`` that no
longer exists.
"""

from __future__ import annotations

import argparse
import pathlib
import re

import pytest

from repro.cli import build_parser
from repro.serving.http import ROUTES

REPO = pathlib.Path(__file__).parent.parent
DOC_FILES = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
FLAG_DOC_FILES = [*DOC_FILES, REPO / "DESIGN.md"]
#: Lines invoking these tools document *their* flags, not the repro CLI's.
FOREIGN_TOOLS = ("pytest", "perfbench/", "pip ")


@pytest.fixture(scope="module")
def docs_text() -> str:
    return "\n".join(path.read_text() for path in DOC_FILES)


def _cli_flags() -> set[str]:
    """Every option string of the parser and all its subcommands."""
    flags: set[str] = set()
    pending = [build_parser()]
    while pending:
        parser = pending.pop()
        for action in parser._actions:
            flags.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                pending.extend(action.choices.values())
    return flags


def _cli_verbs() -> list[str]:
    parser = build_parser()
    actions = [a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)]
    assert actions, "CLI has no subcommands?"
    return sorted(actions[0].choices)


class TestDocsCoverLiveSurface:
    def test_docs_exist(self):
        assert (REPO / "docs" / "API.md").exists()
        assert (REPO / "docs" / "OPERATIONS.md").exists()

    @pytest.mark.parametrize("verb", _cli_verbs())
    def test_every_cli_verb_documented(self, docs_text, verb):
        """Each verb must appear as an invocation (``repro <verb>``),
        not merely as an English word."""
        pattern = rf"repro {re.escape(verb)}\b"
        assert re.search(pattern, docs_text), (
            f"CLI verb {verb!r} is undocumented: no 'repro {verb}' "
            f"invocation found in README.md or docs/")

    @pytest.mark.parametrize(
        "route", ROUTES, ids=lambda r: f"{r.method}-{r.path}")
    def test_every_http_endpoint_documented(self, route):
        api = (REPO / "docs" / "API.md").read_text()
        assert route.path in api, (
            f"HTTP endpoint {route.method} {route.path} is missing from "
            f"docs/API.md")
        # The method must be named near the path (heading or table).
        assert re.search(
            rf"{route.method}\s+{re.escape(route.path)}", api), (
            f"docs/API.md never pairs {route.method} with {route.path}")

    def test_readme_links_the_handbook_and_api(self):
        readme = (REPO / "README.md").read_text()
        assert "docs/OPERATIONS.md" in readme
        assert "docs/API.md" in readme

    def test_serving_example_is_referenced(self, docs_text):
        assert "examples/serving_client.py" in docs_text


class TestDocsMentionNoDeadSurface:
    """The reverse direction: docs must not advertise verbs or
    endpoints that do not exist (stale-flag drift)."""

    def test_no_unknown_cli_verbs_advertised(self, docs_text):
        known = set(_cli_verbs())
        # "repro <word>" occurrences in docs, filtering prose like
        # "repro serve flags" via the verb position only.
        advertised = set(re.findall(r"repro ([a-z][a-z0-9_-]+)\b",
                                    docs_text))
        prose_words = {"package", "serve"}  # "the repro package", etc.
        unknown = advertised - known - prose_words
        assert not unknown, f"docs advertise nonexistent verbs: {unknown}"

    def test_no_unknown_endpoints_advertised(self):
        api = (REPO / "docs" / "API.md").read_text()
        advertised = set(re.findall(r"^#+ (?:GET|POST) (/\S+)", api,
                                    flags=re.MULTILINE))
        known = {route.path for route in ROUTES}
        unknown = advertised - known
        assert not unknown, f"docs advertise nonexistent endpoints: {unknown}"

    def test_no_unknown_cli_flags_advertised(self):
        known = _cli_flags()
        unknown = {}
        for path in FLAG_DOC_FILES:
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if any(tool in line for tool in FOREIGN_TOOLS):
                    continue
                for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line):
                    if flag not in known:
                        unknown[flag] = f"{path.name}:{lineno}"
        assert not unknown, f"docs advertise nonexistent flags: {unknown}"
