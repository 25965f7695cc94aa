"""URL canonicalization + hashing for the frontier.

Canonical form: lowercase scheme/host, default ports stripped, fragment
removed, empty path → "/", dot-segments resolved, percent-encodings
normalized (RFC 3986 §6.2.2: unreserved octets decoded, remaining hex
uppercased).  The frontier's identity key is ``sha1(canonical_url)``
truncated to a signed 63-bit int — membership is therefore independent
of shard count or wave order.
"""

from __future__ import annotations

import hashlib
import re
from urllib.parse import urlsplit, urlunsplit

_PCT = re.compile(r"%([0-9A-Fa-f]{2})")
_UNRESERVED = set(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~"
)


def _norm_pct(s: str) -> str:
    """RFC 3986 §6.2.2 percent-encoding normalization: ``%7E`` → ``~``
    (unreserved octets decoded), other escapes uppercased (``%3a`` →
    ``%3A``); malformed ``%`` sequences pass through untouched."""
    if "%" not in s:
        return s

    def fix(m: re.Match) -> str:
        ch = chr(int(m.group(1), 16))
        return ch if ch in _UNRESERVED else f"%{m.group(1).upper()}"

    return _PCT.sub(fix, s)


def canonicalize(url: str) -> str:
    try:
        parts = urlsplit(url.strip())
    except ValueError:
        return url.strip()
    scheme = parts.scheme.lower()
    host = parts.hostname or ""
    port = None
    try:
        port = parts.port
    except ValueError:
        pass
    if port and not (
        (scheme == "http" and port == 80) or (scheme == "https" and port == 443)
    ):
        netloc = f"{host}:{port}"
    else:
        netloc = host
    # RFC 3986 §6.2.2.3: percent-decode (unreserved) BEFORE dot-segment
    # removal — '%2E%2E' must resolve as '..' so one resource yields one
    # frontier identity and canonicalize() is idempotent.
    path = _resolve_dots(_norm_pct(parts.path)) or "/"
    return urlunsplit((scheme, netloc, path, _norm_pct(parts.query), ""))


def _resolve_dots(path: str) -> str:
    if "." not in path:
        return path
    out: list[str] = []
    for seg in path.split("/"):
        if seg == ".":
            continue
        if seg == "..":
            if out and out[-1]:
                out.pop()
            continue
        out.append(seg)
    return "/".join(out)


def url_hash(canonical: str) -> int:
    return int.from_bytes(
        hashlib.sha1(canonical.encode("utf-8")).digest()[:8], "big"
    ) >> 1


def host_of(canonical: str) -> str:
    try:
        return urlsplit(canonical).hostname or ""
    except ValueError:
        return ""


# --- registrable domain (public-suffix algorithm) ----------------------------
#
# Per-domain crawl state (politeness budgets, robots, host stats) should
# key on the REGISTRABLE domain, not the raw host: "a.blog.example.co.uk"
# and "b.blog.example.co.uk" are one administrative site.  The matching
# algorithm is the published publicsuffix.org one: exception rules win
# (public suffix = the exception minus its leftmost label); otherwise the
# longest matching rule wins, where "*" matches exactly one label; if no
# rule matches, the implicit "*" rule makes the top label the suffix.
# Registrable domain = public suffix + one more label (NULL when the host
# IS a public suffix).
#
# The embedded rule set is a small fixture SUBSET in PSL syntax chosen to
# exercise every branch (multi-label, wildcard, exception, implicit "*");
# a production deployment swaps in the full published list — the
# algorithm below is list-size-independent (dict lookups per label
# count).

PSL_RULES = (
    "com",
    "org",
    "net",
    "io",
    "uk",
    "co.uk",
    "gov.uk",
    "au",
    "com.au",
    "cn",
    "edu.cn",
    "jp",
    "co.jp",
    "github.io",
    "blogspot.com",
    "*.ck",
    "!www.ck",
)

_PSL_EXCEPTIONS = frozenset(r[1:] for r in PSL_RULES if r.startswith("!"))
_PSL_WILDCARD_BASES = frozenset(r[2:] for r in PSL_RULES if r.startswith("*."))
_PSL_EXACT = frozenset(r for r in PSL_RULES if not r.startswith(("!", "*.")))


def split_registrable(host: str) -> tuple[str, str | None]:
    """(public_suffix, registrable_domain | None) for a lowercase host."""
    labels = host.lower().rstrip(".").split(".")
    n = len(labels)
    exc_j = exact_j = wild_j = 0
    for j in range(1, n + 1):
        suf = ".".join(labels[n - j :])
        if suf in _PSL_EXCEPTIONS:
            exc_j = j
        if suf in _PSL_EXACT:
            exact_j = j
        # "*.base" matches when the host has one extra label in the
        # star's place, i.e. a (j+1)-label public suffix
        if j < n and suf in _PSL_WILDCARD_BASES:
            wild_j = j + 1
    if exc_j:
        ps_labels = exc_j - 1
    else:
        ps_labels = max(exact_j, wild_j, 1)  # implicit "*" rule
    ps = ".".join(labels[n - ps_labels :])
    if n > ps_labels:
        return ps, ".".join(labels[n - ps_labels - 1 :])
    return ps, None


def registrable_domain_batch(hosts: list[str]) -> tuple[list[str], list[str | None]]:
    """Vector form over a host column (per-batch; lookups only)."""
    sufs: list[str] = []
    regs: list[str | None] = []
    for h in hosts:
        ps, reg = split_registrable(h or "")
        sufs.append(ps)
        regs.append(reg)
    return sufs, regs
