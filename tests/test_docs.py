"""Tier-1 enforcement of the docs checker (CI runs it standalone too).

Every fenced python block in README/docs must compile (and doctest
blocks must pass), every relative link — markdown or ``[[wiki]]`` style
— must resolve, every docs/*.md page must be reachable from the
documentation hubs (README.md or docs/architecture.md), and every
``>>>`` example in a ``src/repro`` docstring must pass, so the docs
suite cannot rot or sprout orphan pages silently as the code moves.
"""

import doctest
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


def test_docs_blocks_and_links():
    errors = check_docs.run_checks()
    assert not errors, "\n".join(errors)


def test_checker_covers_the_docs_suite():
    names = {p.name for p in check_docs.doc_files()}
    assert {"README.md", "architecture.md", "pipeline.md",
            "reproducing.md", "wire_format.md", "cost_model.md"} <= names


def test_checker_runs_the_source_docstring_examples():
    names = {t.name for t in check_docs.module_doctests()}
    assert {
        "repro.runtime.comm",
        "repro.semantics.measures",
        "repro.semantics.weighted.weighted_jaccard_pair",
        "repro.service.lsh",
        "repro.service.query.size_ratio_window",
        "repro.service.plan.QueryPlan.describe",
        "repro.core.similarity.jaccard_similarity",
    } <= names


def test_failing_source_docstring_example_reported(monkeypatch):
    broken = doctest.DocTestParser().get_doctest(
        ">>> 1 + 1\n3\n", {}, "repro.fake.example", "fake.py", 0
    )
    monkeypatch.setattr(check_docs, "module_doctests", lambda root: [broken])
    errors = []
    check_docs.check_module_doctests(errors, verbose=False)
    assert len(errors) == 1 and "repro.fake.example" in errors[0]


def make_repo(tmp_path, readme="", pages=None):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(readme)
    for name, text in (pages or {}).items():
        (tmp_path / "docs" / name).write_text(text)
    return tmp_path


class TestOrphanDetection:
    def test_orphan_page_flagged(self, tmp_path):
        root = make_repo(
            tmp_path,
            readme="[arch](docs/architecture.md)\n",
            pages={"architecture.md": "hub\n", "lonely.md": "unlinked\n"},
        )
        errors = check_docs.run_checks(root=root)
        assert len(errors) == 1
        assert "lonely.md" in errors[0] and "orphan" in errors[0]

    def test_page_linked_from_architecture_hub_passes(self, tmp_path):
        root = make_repo(
            tmp_path,
            readme="[arch](docs/architecture.md)\n",
            pages={"architecture.md": "[details](details.md)\n",
                   "details.md": "reachable via the hub\n"},
        )
        assert check_docs.run_checks(root=root) == []

    def test_wiki_style_hub_link_counts(self, tmp_path):
        root = make_repo(
            tmp_path,
            readme="[arch](docs/architecture.md)\n[[docs/notes]]\n",
            pages={"architecture.md": "hub\n", "notes.md": "wiki-linked\n"},
        )
        assert check_docs.run_checks(root=root) == []


class TestWikiLinks:
    def test_dead_wiki_link_flagged(self, tmp_path):
        root = make_repo(
            tmp_path,
            readme="[arch](docs/architecture.md)\n",
            pages={"architecture.md": "see [[missing_page]]\n"},
        )
        errors = check_docs.run_checks(root=root)
        assert any("dead wiki link" in e and "missing_page" in e
                   for e in errors)

    def test_live_wiki_link_resolves_with_and_without_suffix(self, tmp_path):
        root = make_repo(
            tmp_path,
            readme="[arch](docs/architecture.md)\n",
            pages={
                "architecture.md": "see [[pipeline]] and [[pipeline.md]] "
                                   "and [[pipeline#section|label]]\n",
                "pipeline.md": "target\n",
            },
        )
        assert check_docs.run_checks(root=root) == []

    def test_wiki_links_in_code_fences_ignored(self, tmp_path):
        root = make_repo(
            tmp_path,
            readme="[arch](docs/architecture.md)\n",
            pages={"architecture.md":
                   "```\n[[not_a_link]]\n```\nprose\n"},
        )
        assert check_docs.run_checks(root=root) == []
