"""Shared pytest plumbing: the acceptance scoreboard summary section and
the certificate margin invariant."""

scoreboard: list[str] = []


def negative_margin_passes(cert) -> list[dict]:
    """Entries of `cert` that pass with a margin below -FLOAT_MASS_TOL."""
    from girthlab.kernels import FLOAT_MASS_TOL

    return [e for e in cert.entries
            if e["status"] == "pass" and not float(e["margin"]) >= -FLOAT_MASS_TOL]


def pytest_terminal_summary(terminalreporter):
    if scoreboard:
        terminalreporter.section("acceptance criteria")
        for line in scoreboard:
            terminalreporter.write_line(line)
