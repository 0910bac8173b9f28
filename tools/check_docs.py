#!/usr/bin/env python3
"""Docs checker: keep README/docs code blocks and links from rotting.

Five checks over ``README.md`` and every ``docs/*.md``, and a sixth over
the source:

1. **doctest** — fenced ``python`` blocks containing ``>>>`` prompts are
   executed with :mod:`doctest` (with ``src`` on the path), so every
   interactive example in the docs keeps producing exactly the output
   it shows;
2. **syntax** — remaining ``python`` blocks must at least compile
   (examples with placeholder paths or big workloads are not executed,
   but a renamed function or argument still fails the build);
3. **links** — relative markdown links must point at files that exist
   in the repository (external http(s)/mailto links are left alone);
4. **wiki links** — ``[[target]]``-style relative links must resolve to
   an existing file (``target`` or ``target.md``);
5. **orphans** — every ``docs/*.md`` page must be reachable from the
   documentation hubs (linked from ``README.md`` or
   ``docs/architecture.md``), so new pages cannot land unlisted;
6. **docstring examples** — every ``>>>`` example in a docstring of a
   ``src/repro`` module is executed with :mod:`doctest`, so the API
   examples in the code keep producing exactly the output they show.

Run:  python tools/check_docs.py            # exit 1 on any failure
      python tools/check_docs.py --verbose  # list every check
"""

from __future__ import annotations

import argparse
import doctest
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

FENCE_RE = re.compile(
    r"^```(?P<lang>[A-Za-z0-9_+-]*)[ \t]*\n(?P<body>.*?)^```[ \t]*$",
    re.MULTILINE | re.DOTALL,
)
# [text](target) — excluding images' alt text is irrelevant, same syntax.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# [[target]] wiki-style links (with optional #anchor / |label parts).
WIKILINK_RE = re.compile(r"\[\[([^\]]+?)\]\]")

#: Pages every docs/*.md file must be linked from (relative to root).
HUB_PAGES = ("README.md", "docs/architecture.md")


def doc_files(root: Path = REPO_ROOT) -> list[Path]:
    files = [root / "README.md"]
    files.extend(sorted((root / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def _wikilink_target(raw: str) -> str:
    """Strip ``|label`` and ``#anchor`` decorations from a wiki link."""
    return raw.split("|")[0].split("#")[0].strip()


def check_python_block(
    path: Path, index: int, body: str, errors: list[str], verbose: bool
) -> None:
    if ">>>" in body:
        parser = doctest.DocTestParser()
        runner = doctest.DocTestRunner(verbose=False)
        test = doctest.DocTest(
            examples=parser.get_examples(body),
            globs={}, name=f"{path.name}[block {index}]",
            filename=str(path), lineno=0, docstring=body,
        )
        out: list[str] = []
        runner.run(test, out=out.append)
        if runner.failures:
            errors.append(
                f"{path.relative_to(REPO_ROOT)} block {index}: "
                f"{runner.failures} doctest failure(s)\n"
                + "".join(out)
            )
        elif verbose:
            print(f"  doctest ok: {path.name} block {index} "
                  f"({len(test.examples)} example(s))")
    else:
        try:
            compile(body, f"{path.name}[block {index}]", "exec")
            if verbose:
                print(f"  syntax ok: {path.name} block {index}")
        except SyntaxError as exc:
            errors.append(
                f"{path.relative_to(REPO_ROOT)} block {index}: "
                f"syntax error: {exc}"
            )


def check_links(
    path: Path, text: str, errors: list[str], verbose: bool,
    root: Path = REPO_ROOT,
) -> None:
    # Strip fenced code first so shell snippets can't look like links.
    prose = FENCE_RE.sub("", text)
    for target in LINK_RE.findall(prose):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#")[0]).resolve()
        if not resolved.exists():
            errors.append(
                f"{path.relative_to(root)}: broken link -> {target}"
            )
        elif verbose:
            print(f"  link ok: {path.name} -> {target}")


def check_wikilinks(
    path: Path, text: str, errors: list[str], verbose: bool,
    root: Path = REPO_ROOT,
) -> None:
    """``[[target]]`` links must name an existing relative file."""
    prose = FENCE_RE.sub("", text)
    for raw in WIKILINK_RE.findall(prose):
        target = _wikilink_target(raw)
        if not target:
            continue
        base = path.parent / target
        if base.exists() or (path.parent / (target + ".md")).exists():
            if verbose:
                print(f"  wikilink ok: {path.name} -> {target}")
        else:
            errors.append(
                f"{path.relative_to(root)}: dead wiki link -> [[{raw}]]"
            )


def _linked_targets(path: Path) -> set[Path]:
    """Every local file a page links to (markdown + wiki syntax)."""
    text = path.read_text()
    prose = FENCE_RE.sub("", text)
    targets: set[Path] = set()
    for target in LINK_RE.findall(prose):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        targets.add((path.parent / target.split("#")[0]).resolve())
    for raw in WIKILINK_RE.findall(prose):
        target = _wikilink_target(raw)
        if not target:
            continue
        base = path.parent / target
        targets.add(base.resolve())
        targets.add((path.parent / (target + ".md")).resolve())
    return targets


def check_orphans(
    errors: list[str], verbose: bool, root: Path = REPO_ROOT
) -> None:
    """Every docs/*.md page must be linked from a hub page."""
    linked: set[Path] = set()
    hubs = []
    for rel in HUB_PAGES:
        hub = root / rel
        if hub.exists():
            hubs.append(rel)
            linked |= _linked_targets(hub)
    for page in sorted((root / "docs").glob("*.md")):
        if page.resolve() in linked:
            if verbose:
                print(f"  reachable: {page.relative_to(root)}")
        else:
            errors.append(
                f"{page.relative_to(root)}: orphan page (not linked from "
                f"{' or '.join(hubs)})"
            )


def module_doctests(root: Path = REPO_ROOT) -> list[doctest.DocTest]:
    """Every docstring example of the ``src/repro`` modules that have one."""
    src = root / "src"
    finder = doctest.DocTestFinder()
    tests: list[doctest.DocTest] = []
    for path in sorted((src / "repro").rglob("*.py")):
        if ">>>" not in path.read_text():
            continue
        name = ".".join(path.relative_to(src).with_suffix("").parts)
        module = importlib.import_module(name.removesuffix(".__init__"))
        tests.extend(t for t in finder.find(module) if t.examples)
    return tests


def check_module_doctests(
    errors: list[str], verbose: bool, root: Path = REPO_ROOT
) -> None:
    runner = doctest.DocTestRunner(verbose=False)
    for test in module_doctests(root):
        out: list[str] = []
        if runner.run(test, out=out.append).failed:
            errors.append(
                f"{test.name}: docstring example failure(s)\n" + "".join(out)
            )
        elif verbose:
            print(f"  doctest ok: {test.name} "
                  f"({len(test.examples)} example(s))")


def run_checks(verbose: bool = False, root: Path = REPO_ROOT) -> list[str]:
    errors: list[str] = []
    for path in doc_files(root):
        text = path.read_text()
        if verbose:
            print(f"{path.relative_to(root)}:")
        for index, match in enumerate(FENCE_RE.finditer(text)):
            if match.group("lang").lower() in ("python", "py"):
                check_python_block(
                    path, index, match.group("body"), errors, verbose
                )
        check_links(path, text, errors, verbose, root)
        check_wikilinks(path, text, errors, verbose, root)
    check_orphans(errors, verbose, root)
    if verbose:
        print("src/repro docstrings:")
    check_module_doctests(errors, verbose, root)
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true",
                        help="list every passing check")
    args = parser.parse_args(argv)
    errors = run_checks(verbose=args.verbose)
    n_files = len(doc_files())
    if errors:
        print(f"\n{len(errors)} docs problem(s) in {n_files} file(s):")
        for err in errors:
            print(f"- {err}")
        return 1
    print(f"docs ok: {n_files} file(s) checked")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
