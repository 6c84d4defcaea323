"""Shared pytest plumbing: the acceptance scoreboard summary section and
the certificate invariants."""

scoreboard: list[str] = []


def negative_margin_passes(cert) -> list[dict]:
    """Entries of `cert` that pass with a negative margin."""
    return [e for e in cert.entries
            if e["status"] == "pass" and not float(e["margin"]) >= 0]


def recomputed_status(entry: dict) -> str:
    """The status of a certificate entry, recomputed from its record alone:
    pass iff lhs.hi clears rhs.lo, fail iff lhs.lo is past rhs.hi."""
    lhs_lo, lhs_hi = float(entry["lhs_lo"]), float(entry["lhs"])
    rhs_lo, rhs_hi = float(entry["rhs"]), float(entry["rhs_hi"])
    if lhs_hi < rhs_lo or (not entry["strict"] and lhs_hi == rhs_lo):
        return "pass"
    if lhs_lo > rhs_hi or (entry["strict"] and lhs_lo == rhs_hi):
        return "fail"
    return "inconclusive"


def misrecorded_entries(cert) -> list[dict]:
    """Entries of `cert` whose recorded status differs from the recomputed one."""
    return [e for e in cert.entries if e["status"] != recomputed_status(e)]


# words that name a sampling method in an input's provenance
SAMPLING_WORDS = ("bisection", "trials", "monte carlo")


def sampled_inputs(cert) -> list[tuple[str, str]]:
    """(graph, input) pairs of `cert` whose provenance names a sampling
    method: a certificate input must be a closed form or a witness."""
    return [(g["graph"], name) for g in cert.graphs for name, rec in g["inputs"].items()
            if isinstance(rec, dict)
            and any(w in rec["provenance"].lower() for w in SAMPLING_WORDS)]


def pytest_terminal_summary(terminalreporter):
    if scoreboard:
        terminalreporter.section("acceptance criteria")
        for line in scoreboard:
            terminalreporter.write_line(line)
