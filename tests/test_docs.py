"""The documentation must exist, be complete, and have no broken links.

These tests keep the docs honest as the code evolves: the link checker
(``scripts/check_docs.py``) runs inside the tier-1 suite, and a few content
assertions pin the contract — all five HTTP endpoints documented with
examples and error codes, and the architecture page describing the one
elimination engine.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"

sys.path.insert(0, str(REPO_ROOT / "scripts"))

from check_docs import check_docs  # noqa: E402


def test_docs_pages_exist():
    for page in ("index.md", "architecture.md", "http_api.md"):
        assert (DOCS / page).is_file(), f"docs/{page} is missing"


def test_no_broken_links_or_anchors():
    problems = check_docs()
    assert not problems, "\n".join(problems)


def test_http_api_documents_every_endpoint():
    text = (DOCS / "http_api.md").read_text(encoding="utf-8")
    for endpoint in ("/register", "/count", "/batch", "/budget", "/stats"):
        assert endpoint in text, f"{endpoint} is not documented"
    # curl examples and the error-code table are part of the contract.
    assert text.count("curl -s") >= 5
    for status in ("400", "403", "404"):
        assert status in text


def test_architecture_page_describes_the_engine():
    text = (DOCS / "architecture.md").read_text(encoding="utf-8")
    assert "engine/columnar.py" in text
    assert "How the columnar engine works" in text
    assert "Python ints" in text  # the exact-count fallback


def test_architecture_page_shows_the_layering():
    text = (DOCS / "architecture.md").read_text(encoding="utf-8")
    for layer in ("data/", "engine/", "sensitivity/", "mechanisms/", "service/"):
        assert layer in text


def test_readme_links_docs():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for page in ("docs/architecture.md", "docs/http_api.md", "docs/performance.md"):
        assert page in text, f"README does not link {page}"
