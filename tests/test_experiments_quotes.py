"""EXPERIMENTS.md quotes the committed ``results/`` files truthfully.

The measured columns of the fig 6/7 and fig 9 tables are copied by hand
from ``results/``.  Each quoted figure is recomputed here from the file it
cites and compared at the precision the quote uses, so regenerating
``results/`` without updating EXPERIMENTS.md (or the reverse) fails.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS = REPO_ROOT / "results"
NUMBER = r"(\d+(?:\.\d+)?)"
PROTECTED = ("sced", "dced", "casted")


def _measured(claim: str) -> str:
    """The 'measured' cell of the EXPERIMENTS.md table row for ``claim``."""
    for line in (REPO_ROOT / "EXPERIMENTS.md").read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if cells[0] == claim:
            return cells[-1]
    raise AssertionError(f"EXPERIMENTS.md has no row {claim!r}")


def _quoted(cell: str, pattern: str) -> tuple[str, ...]:
    match = re.search(pattern, cell)
    assert match, f"{cell!r} does not match {pattern!r}"
    return match.groups()


def _agrees(quote: str, value: float) -> bool:
    """Whether ``value`` rounds to ``quote`` at the quote's precision."""
    decimals = len(quote.partition(".")[2])
    return f"{value:.{decimals}f}" == quote


def _assert_quotes(quotes: tuple[str, ...], values: tuple[float, ...]) -> None:
    assert all(map(_agrees, quotes, values)), (quotes, values)


@pytest.fixture(scope="module")
def summary() -> str:
    return (RESULTS / "fig6_7_summary.txt").read_text()


@pytest.fixture(scope="module")
def fig9() -> dict[tuple[str, str], tuple[float, ...]]:
    """(benchmark, scheme) -> (benign, detected, exception, sdc, timeout)."""
    rows = {}
    for line in (RESULTS / "fig9_fault_coverage.txt").read_text().splitlines():
        match = re.match(r"(\w+) (\w+)((?:\s+[\d.]+%){5})$", line)
        if match:
            rows[match[1], match[2]] = tuple(
                float(v) for v in re.findall(r"[\d.]+", match[3])
            )
    assert len(rows) == 28
    return rows


def _column(rows, column: int, schemes) -> list[float]:
    return [v[column] for (_, scheme), v in rows.items() if scheme in schemes]


class TestFig67Quotes:
    @pytest.mark.parametrize("scheme", ["SCED", "DCED", "CASTED"])
    def test_slowdown_range_and_mean(self, summary, scheme):
        row = re.search(
            rf"^{scheme}\s+{NUMBER}\s+{NUMBER}\s+{NUMBER}\s", summary, re.M
        )
        cell = _measured(f"{scheme} slowdown range (avg)")
        _assert_quotes(
            _quoted(cell, rf"^{NUMBER}–{NUMBER} \({NUMBER}\)$"),
            tuple(float(v) for v in row.groups()),
        )

    def test_casted_vs_best_fixed(self, summary):
        beats, matches, total, gain = _quoted(
            summary,
            rf"beats (\d+), matches (\d+), loses \d+ of (\d+) configs; "
            rf"max gain {NUMBER}%",
        )
        at_least, of, _ = _quoted(
            _measured("CASTED ≥ best fixed"),
            rf"matches/beats in (\d+)/(\d+) \(worst loss {NUMBER}%\)",
        )
        assert (int(at_least), int(of)) == (int(beats) + int(matches), int(total))
        up_to, configs = _quoted(
            _measured("CASTED beats best fixed"),
            rf"up to {NUMBER}%, (\d+) configs",
        )
        assert int(configs) == int(beats)
        _assert_quotes((up_to,), (float(gain),))

    def test_worst_loss_is_the_crossover_worst_gap(self):
        crossover = (RESULTS / "fig6_7_crossover.txt").read_text()
        gaps = [
            float(g)
            for g in re.findall(r"\s(?:yes|no)\s+([\d.]+)%$", crossover, re.M)
        ]
        assert len(gaps) == 7
        (worst,) = _quoted(
            _measured("CASTED ≥ best fixed"), rf"worst loss {NUMBER}%"
        )
        _assert_quotes((worst,), (max(gaps),))

    def test_average_reductions(self, summary):
        vs_sced, vs_dced = _quoted(
            summary, rf"reduction vs SCED: {NUMBER}%.*vs DCED: {NUMBER}%"
        )
        quoted = _quoted(
            _measured("avg reduction vs SCED / vs DCED (§VI)"),
            rf"^{NUMBER}% / {NUMBER}%$",
        )
        _assert_quotes(quoted, (float(vs_sced), float(vs_dced)))


class TestFig9Quotes:
    @pytest.mark.parametrize(
        "claim,column,schemes",
        [
            ("NOED suffers large silent corruption", 3, ("noed",)),
            ("protected schemes detect most faults", 1, PROTECTED),
            ("SDC nearly eliminated; residue from libraries", 3, PROTECTED),
            ("exceptions form a large detected-adjacent class", 2, PROTECTED),
        ],
    )
    def test_range(self, fig9, claim, column, schemes):
        values = _column(fig9, column, schemes)
        _assert_quotes(
            _quoted(_measured(claim), rf"^{NUMBER}–{NUMBER}%"),
            (min(values), max(values)),
        )

    def test_encoder_masking(self, fig9):
        (benign,) = _quoted(
            _measured("encoders mask more faults"),
            rf"h263enc benign {NUMBER}% \(NOED\)",
        )
        _assert_quotes((benign,), (fig9["h263enc", "noed"][0],))
        others = [v[0] for (b, s), v in fig9.items() if s == "noed" and b != "h263enc"]
        assert fig9["h263enc", "noed"][0] > max(others)

    def test_timeouts(self, fig9):
        rate, trials = _quoted(
            _measured("timeouts rare"), rf"^{NUMBER}% .* at (\d+) trials$"
        )
        _assert_quotes((rate,), (max(_column(fig9, 4, ("noed",) + PROTECTED)),))
        text = (RESULTS / "fig9_fault_coverage.txt").read_text()
        assert f"({trials} Monte-Carlo trials per campaign)" in text
