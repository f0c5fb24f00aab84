"""Markdown link-check over README and docs/ — no dangling references.

Every relative link target (file or directory) in the top-level
markdown docs must exist in the repo, and intra-document anchors must
point at a real heading.  Every ``*.md`` file a module under ``src/``
names must exist too (``EXPERIMENTS.md`` is exempt: the program
writes it).  External (http/https/mailto) links are out of scope for
an offline test; the CI docs leg runs this module, so a doc rename or
file move that orphans a link fails the build.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DOCS = sorted(
    p
    for p in [ROOT / "README.md", ROOT / "ROADMAP.md", *(ROOT / "docs").glob("*.md")]
    if p.exists()
)

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
MD_NAME = re.compile(r"[\w./-]+\.md\b")
#: generated by ``repro.analysis.writer``, so absent from a checkout
GENERATED = {"EXPERIMENTS.md"}
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def anchors_of(path: Path) -> set[str]:
    """GitHub-style heading anchors of a markdown file."""
    out = set()
    for heading in HEADING.findall(path.read_text()):
        slug = re.sub(r"[`*_]", "", heading.strip().lower())
        slug = re.sub(r"[^\w\s-]", "", slug)
        out.add(re.sub(r"\s+", "-", slug).strip("-"))
    return out


def iter_links():
    for doc in DOCS:
        for target in LINK.findall(doc.read_text()):
            yield doc, target


@pytest.mark.parametrize(
    "doc, target",
    [pytest.param(d, t, id=f"{d.name}:{t}") for d, t in iter_links()],
)
def test_link_resolves(doc: Path, target: str):
    if target.startswith(("http://", "https://", "mailto:")):
        pytest.skip("external link (offline test)")
    path_part, _, anchor = target.partition("#")
    if path_part:
        resolved = (doc.parent / path_part).resolve()
        assert resolved.exists(), f"{doc.name}: dangling link {target!r}"
        target_doc = resolved
    else:
        target_doc = doc
    if anchor and target_doc.suffix == ".md":
        assert anchor in anchors_of(target_doc), (
            f"{doc.name}: anchor {target!r} matches no heading in "
            f"{target_doc.name}"
        )


def test_docs_corpus_nonempty():
    names = {p.name for p in DOCS}
    assert {"README.md", "ARCHITECTURE.md", "HTTP_API.md"} <= names


def iter_md_names():
    for path in sorted((ROOT / "src").rglob("*.py")):
        for name in sorted(set(MD_NAME.findall(path.read_text()))):
            if name not in GENERATED:
                yield path.relative_to(ROOT), name


@pytest.mark.parametrize(
    "source, name",
    [pytest.param(s, n, id=f"{s}:{n}") for s, n in iter_md_names()],
)
def test_md_named_in_src_exists(source: Path, name: str):
    """A bare name may live at the repo root or in docs/."""
    candidates = [ROOT / name]
    if "/" not in name:
        candidates.append(ROOT / "docs" / name)
    assert any(c.exists() for c in candidates), (
        f"{source} names {name}, which does not exist"
    )
