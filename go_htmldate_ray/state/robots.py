"""robots.txt rules cache.

:class:`RobotsCache` maps host → parsed rule list and Crawl-delay on the
crawl driver, resolving each host once per crawl; each wave looks its
hosts up in it, a small-side lookup, never a shuffle join (SURVEY.md
§2.6).

The parser implements the User-agent/Allow/Disallow prefix subset; in
this sandbox the "fetch" of robots.txt is a deterministic synthetic
policy over the synthetic host space (hosts whose index % 13 == 0
disallow /article/).
"""

from __future__ import annotations

import re


def parse_robots(text: str, agent: str | None = None) -> list[tuple[str, str]]:
    """Parse robots.txt → [(verb, path_pattern)] for the applicable
    User-agent group.

    RFC 9309 group selection: when ``agent`` is given and any group's
    agent token is a case-insensitive prefix of it, the rules of ALL
    such specific groups apply and the ``*`` groups are IGNORED — even
    when those specific groups carry no rules (the standard
    "Disallow:" carve-out means the named crawler may fetch
    everything); otherwise the ``*`` groups apply (the default, and the
    previous behavior when ``agent`` is None).  Consecutive
    ``User-agent`` lines share one group, per the spec."""
    agent_lc = (agent or "").lower()
    star_rules: list[tuple[str, str]] = []
    agent_rules: list[tuple[str, str]] = []
    matched_specific = False  # a specific group matched, rules or not
    group_star = False
    group_agent = False
    in_agent_lines = False
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "user-agent":
            if not in_agent_lines:  # a new group starts
                group_star = False
                group_agent = False
            in_agent_lines = True
            token = value.lower()
            if token == "*":
                group_star = True
            elif token and agent_lc.startswith(token):
                # empty tokens (malformed "User-agent:") must NOT match
                # everything via startswith("")
                group_agent = True
                matched_specific = True
        else:
            in_agent_lines = False
            if key in ("allow", "disallow") and value:
                if group_agent:
                    agent_rules.append((key, value))
                if group_star:
                    star_rules.append((key, value))
    return agent_rules if matched_specific else star_rules


def parse_crawl_delay(text: str) -> float:
    """robots.txt Crawl-delay (seconds) for User-agent: *; 0.0 = none."""
    applies = False
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "user-agent":
            applies = value == "*"
        elif applies and key == "crawl-delay":
            try:
                return max(0.0, float(value))
            except ValueError:
                return 0.0
    return 0.0


def parse_sitemap_directives(text: str) -> list[str]:
    """robots.txt ``Sitemap:`` URLs.  Per the sitemaps.org protocol the
    directive is global (independent of any User-agent group), so no
    agent tracking here."""
    out: list[str] = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        key, _, value = line.partition(":")
        if key.strip().lower() == "sitemap" and value.strip():
            out.append(value.strip())
    return out


_WILDCARD_CACHE: dict[str, "re.Pattern"] = {}


def _pattern_matches(path: str, pattern: str) -> bool:
    """RFC 9309 path-pattern match: ``*`` spans any characters, a
    trailing ``$`` anchors the end; plain patterns are prefixes."""
    if "*" not in pattern and not pattern.endswith("$"):
        return path.startswith(pattern)
    rx = _WILDCARD_CACHE.get(pattern)
    if rx is None:
        body = pattern[:-1] if pattern.endswith("$") else pattern
        regex = ".*".join(re.escape(part) for part in body.split("*"))
        if pattern.endswith("$"):
            regex += "$"
        rx = _WILDCARD_CACHE[pattern] = re.compile(regex)
    return rx.match(path) is not None


def allowed(path: str, rules: list[tuple[str, str]]) -> bool:
    """RFC 9309 most-specific-match: the matching rule with the longest
    pattern wins; on a tie (or no match) allow wins — with full ``*`` /
    ``$`` wildcard support (plain prefixes stay on the fast path)."""
    best_len = -1
    best_verb = "allow"
    for verb, pattern in rules:
        if _pattern_matches(path, pattern):
            n = len(pattern)
            if n > best_len or (n == best_len and verb == "allow"):
                best_len = n
                best_verb = verb
    return best_verb == "allow"


_SYNTH_HOST = re.compile(r"site(\d+)\.example\.org")


def synthetic_robots_txt(host: str) -> str:
    """Deterministic robots policy for the synthetic corpus: hosts with
    index % 13 == 0 disallow /article/, hosts with index % 11 == 3
    declare a Crawl-delay of 2 s (independent residues, so a host can
    carry both directives)."""
    m = _SYNTH_HOST.fullmatch(host)
    idx = int(m.group(1)) if m else -1
    delay = "Crawl-delay: 2\n" if idx >= 0 and idx % 11 == 3 else ""
    sitemap = f"Sitemap: https://{host}/sitemap.xml\n" if idx >= 0 else ""
    if idx >= 0 and idx % 13 == 0:
        return f"User-agent: *\nDisallow: /article/\n{delay}{sitemap}"
    return f"User-agent: *\nAllow: /\n{delay}{sitemap}"


class RobotsCache:
    """host → (rules, crawl-delay), fetched once per host.

    ``http_base`` switches the robots source from the synthetic policy
    to a live HTTP fetch of ``{http_base}/{host}/robots.txt`` (the same
    host-prefix mapping the live-HTTP page fetcher uses).  A missing or
    unreachable robots.txt yields permissive empty rules — the standard
    crawler behavior — and the outcome is cached either way, so each
    host costs at most one robots request per crawl."""

    def __init__(
        self,
        http_base: str | None = None,
        timeout: float = 10.0,
        agent: str = "go-htmldate-ray-crawler",
    ):
        self.rules: dict[str, list[tuple[str, str]]] = {}
        self.delays: dict[str, float] = {}
        self.http_base = http_base.rstrip("/") if http_base else None
        self.timeout = timeout
        self.agent = agent
        # hosts resolved since the last drain — the per-wave checkpoint
        # unit (as the seen set's wave delta: I/O ∝ new hosts per wave, not
        # total hosts ever seen)
        self._delta_hosts: set[str] = set()

    def _robots_text(self, host: str) -> str:
        if self.http_base is None:
            return synthetic_robots_txt(host)
        from urllib.request import Request, urlopen

        try:
            with urlopen(
                Request(
                    f"{self.http_base}/{host}/robots.txt",
                    headers={"User-Agent": self.agent},
                ),
                timeout=self.timeout,
            ) as resp:
                if resp.status != 200:
                    return ""
                return resp.read(1 << 20).decode("utf-8", "replace")
        except OSError:
            return ""

    def _fetch(self, host: str) -> None:
        if host not in self.rules:
            text = self._robots_text(host)
            # agent-aware group selection: a site addressing this
            # crawler by name gets its specific group honored
            self.rules[host] = parse_robots(text, agent=self.agent)
            self.delays[host] = parse_crawl_delay(text)
            self._delta_hosts.add(host)

    def get_rules(self, hosts: list[str]) -> dict[str, list[tuple[str, str]]]:
        for host in hosts:
            self._fetch(host)
        return {h: self.rules[h] for h in hosts}

    def get_delays(self, hosts: list[str]) -> dict[str, float]:
        for host in hosts:
            self._fetch(host)
        return {h: self.delays[h] for h in hosts}

    def drain_delta(self) -> dict:
        """Rules/delays for hosts resolved since the previous drain.
        Checkpointing dumps ONLY this per wave — at crawl scale the full
        robots table (millions of hosts) must never be re-serialized
        every wave."""
        hosts, self._delta_hosts = self._delta_hosts, set()
        return {
            "rules": {h: self.rules[h] for h in sorted(hosts)},
            "delays": {h: self.delays[h] for h in sorted(hosts)},
        }

    def load(
        self, rules: dict[str, list[tuple[str, str]]], delays: dict[str, float]
    ) -> None:
        """Merge a checkpointed :meth:`drain_delta` (not recorded as a
        delta)."""
        self.rules.update(rules)
        self.delays.update(delays)
