"""Extract the publication date from a single HTML file (mirrors the
reference's examples/from-file.go)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from go_htmldate_ray import Options, from_html
from go_htmldate_ray.sources import reference_files

page = reference_files.MOCK_DIR / "blog.python.org.html"
if not page.exists():
    raise SystemExit(reference_files.ABSENT)
raw = page.read_bytes()
result = from_html(raw, Options(use_original_date=True))
print("Date      :", result.format())
print("Source    :", result.src_string)
