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


def pytest_terminal_summary(terminalreporter):
    if scoreboard:
        terminalreporter.section("acceptance criteria")
        for line in scoreboard:
            terminalreporter.write_line(line)
