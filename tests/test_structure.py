"""Each decision that the package makes in one place is written in one
module: these source greps fail when a copy of it appears elsewhere."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "levyflow"


@pytest.mark.parametrize("pattern, home", [
    (r"SeedSequence\(|\.spawn\(", "_engine.py"),
    (r"InvalidStep\(", "_linalg.py"),
    (r"round\(T / dt\)|ceil\(T / dt|round\(h / dt\)", "_linalg.py"),
    (r"sigma\[|sigma\.reshape|rates\.sum\(\)", "levy_model.py"),
    (r"a direction needs finite entries", "_linalg.py"),
    (r"triplet\.gamma\b|\.compensated\b", "levy_model.py"),
    (r"\.poisson\(|\.choice\(", "_engine.py"),
], ids=["seed_children", "step_refusal", "step_count", "triplet_arrays",
        "direction_refusal", "drift_reading", "jump_law"])
def test_one_rule_in_one_module(pattern, home):
    """The seed rule (``_engine.child_seeds``), the step rule
    (``_linalg.step_grid``), the direction rule (``_linalg.unit_vectors``),
    the reading of sigma and the atom law, the reading of the drift from
    gamma and the compensated atoms (``levy_model``), and the jump law
    (``_engine.draw_jumps``) are each written in their own module only."""
    found = {p.name for p in SRC.glob("*.py") if re.search(pattern, p.read_text())}
    assert found == {home}
