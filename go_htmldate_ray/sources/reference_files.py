"""Where go-htmldate's own test pages live: its ``test-files`` directory,
with the mock pages and the 1,000-document comparison corpus that the
conformance and golden-corpus gates read.  The pages are not part of this
repository; ``GO_HTMLDATE_TEST_FILES`` points at another copy.  When the
directory is absent, callers skip or report ``null`` with :data:`ABSENT`
as the reason.
"""

from __future__ import annotations

import os
from pathlib import Path

TEST_FILES = Path(os.environ.get("GO_HTMLDATE_TEST_FILES", "/root/reference/test-files"))
MOCK_DIR = TEST_FILES / "mock"
CORPUS_DIRS = (TEST_FILES / "mediacloud", TEST_FILES / "comparison", MOCK_DIR)
ABSENT = f"go-htmldate test files not found at {TEST_FILES} (set GO_HTMLDATE_TEST_FILES)"


def available() -> bool:
    return TEST_FILES.is_dir()


def corpus_path(name: str) -> Path | None:
    """The comparison-corpus page ``name``, or None when no copy has it."""
    for d in CORPUS_DIRS:
        p = d / name
        if p.exists():
            return p
    return None
