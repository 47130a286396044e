"""The drift comparator of tools/drift.py on hand-made records."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "drift.py"
_SPEC = importlib.util.spec_from_file_location("drift", _PATH)
drift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(drift)

CELL = ("hopf{n=2}", "holonomy", "fd", 1)


def _record(label="SO(2n-1)", gap=100.0, skew=1e-12, exit=0, sha="a"):
    residual = {"max": skew, "mean": skew, "count": 1,
                "worst_point": [0.5, 1.0], "tolerance": 1e-4, "pass": True}
    suite = {"suite": "holonomy", "pass": exit == 0, "inconclusive": False,
             "residuals": {"skew_defect_loop": residual},
             "classification": {
                 "curvature_span": {"dim": 3, "label": label,
                                    "rank_gap": 1e6},
                 "loop_holonomy": {"dim": 3, "label": label,
                                   "rank_gap": gap},
                 "agree": True, "expected": "SO(2n-1)"}}
    report = {"schema_version": 3, "config": {"manifold": CELL[0]},
              "suites": [suite], "pass": exit == 0, "inconclusive": False}
    return {"cell": list(CELL), "exit": exit, "error": None,
            "report": report, "sha256": sha}


def _error(message, sha="e"):
    return {"cell": list(CELL), "exit": 2, "error": ["ParameterError", message],
            "report": None, "sha256": sha}


def test_numbers_are_drift():
    verdicts, residuals, gaps, others, same = drift.compare(
        {CELL: _record()}, {CELL: _record(gap=110.0, skew=3e-12, sha="b")})
    assert verdicts == []
    assert residuals == {("holonomy", "skew_defect_loop"):
                         pytest.approx(2e-8)}
    assert gaps == {CELL: {"curvature_span": (1.0, 1e6),
                           "loop_holonomy": (pytest.approx(1.1), 100.0)}}
    assert others == {("holonomy", "residuals.skew_defect_loop.worst_point"):
                      0.0}
    assert same == {CELL: (False, False)}
    table = drift.render(residuals, gaps, others, same)
    assert "| holonomy | skew_defect_loop | 2.00e-08 |" in table
    assert "| hopf{n=2} | fd | 1 | ×1 (min 1e+06) | ×1.1 (min 100) |" in table


@pytest.mark.parametrize("gap, shown",
                         [(99.92, "×0.9992 (min 99.9)"),
                          (1360.0, "×13.6 (min 100)")],
                         ids=["fell", "rose"])
def test_rank_gap_change_is_signed(gap, shown):
    """A gap that fell reads below 1 and one that rose above it: a falling
    gap erodes the MIN_RANK_GAP margin, and |change| / base hides which."""
    drift_ = drift.compare({CELL: _record()}, {CELL: _record(gap=gap)})[1:]
    assert drift_[1] == {CELL: {
        "curvature_span": (1.0, 1e6),
        "loop_holonomy": (pytest.approx(gap / 100.0), min(gap, 100.0))}}
    assert (f"| hopf{{n=2}} | fd | 1 | ×1 (min 1e+06) | {shown} |"
            in drift.render(*drift_))
    assert drift._ratio(0.0, 1.0) == float("inf")
    assert drift._ratio(float("nan"), float("nan")) == 1.0


def test_identity_is_counted_per_mode():
    """One table per mode, so every fd report can be seen byte-identical
    while an analytic one moved."""
    analytic = CELL[:2] + ("analytic", 1)
    table = drift.render(*drift.compare(
        {CELL: _record(), analytic: _record()},
        {CELL: _record(), analytic: _record(sha="b")})[1:])
    fd_table, analytic_table = table.split("byte-identical analytic")
    assert "| hopf{n=2} | 1/1 |" in fd_table
    assert "| hopf{n=2} | 0/1 |" in analytic_table


def test_the_smaller_gap_shows_its_margin():
    """A falling gap shows how near it comes to MIN_RANK_GAP = 10 in the
    table itself: the smaller of the two gaps is printed beside the ratio,
    whichever side holds it."""
    for base, change in ((1.12e12, 1.025e12), (12.5, 40.0)):
        gaps = drift.compare({CELL: _record(gap=base)},
                             {CELL: _record(gap=change)})[2]
        assert gaps[CELL]["loop_holonomy"] == (change / base,
                                               min(base, change))
    table = drift.render({}, {CELL: {"loop_holonomy": (0.9152, 1.025e12)}},
                         {}, {})
    assert "| hopf{n=2} | fd | 1 | inf gap | ×0.9152 (min 1.02e+12) |" in table


def test_an_infinite_gap_is_not_a_number():
    _, _, gaps, _, _ = drift.compare({CELL: _record(gap=None)},
                                     {CELL: _record(gap=None)})
    assert gaps == {CELL: {"curvature_span": (1.0, 1e6)}}


@pytest.mark.parametrize("change", [
    _record(label="U(n)"),       # a label
    _record(exit=1),             # pass and the exit code
    _record(gap=None),           # a finite gap turned infinite
    _error("no such suite"),     # a report turned error
], ids=["label", "exit", "gap", "error"])
def test_a_changed_verdict_fails(change):
    assert drift.compare({CELL: _record()}, {CELL: change})[0]


def test_each_difference_is_named():
    verdicts = drift.compare({CELL: _record()},
                             {CELL: _record(label="U(n)")})[0]
    assert verdicts == [f"{CELL}: /suites/0/classification/{est}/label: "
                        "'SO(2n-1)' -> 'U(n)'"
                        for est in ("curvature_span", "loop_holonomy")]


def test_errors_compare_type_and_message():
    assert drift.compare({CELL: _error("a")}, {CELL: _error("a")})[0] == []
    assert drift.compare({CELL: _error("a")}, {CELL: _error("b")})[0]


def test_a_run_on_one_side_only_fails():
    assert drift.compare({CELL: _record()}, {})[0]


def test_nan_moves_infinitely():
    assert drift._delta(float("nan"), float("nan")) == 0.0
    assert drift._delta(1.0, float("nan")) == float("inf")
    assert drift._relative(0.0, 1e-300) == float("inf")


def test_lines_are_counted_per_changed_module(tmp_path):
    """The total, and a row for each module whose bytes differ, one added
    on one side included; an unchanged module gets no row."""
    for tree, files in (("base", {"a.py": "x\n", "b.py": "1\n2\n"}),
                        ("change", {"a.py": "x\n", "b.py": "1\n",
                                    "c.py": "c\nc\nc\n"})):
        package = tmp_path / tree / "src" / "lckgeo"
        package.mkdir(parents=True)
        for name, text in files.items():
            (package / name).write_text(text)
    table = drift.line_counts(tmp_path / "base", tmp_path / "change")
    assert table.splitlines()[-3:] == ["| b.py | 2 | 1 |", "| c.py | 0 | 3 |",
                                       "| total | 3 | 5 |"]
    assert "a.py" not in table


def test_changed_evaluation_counts_are_listed():
    """A cell whose metric_fn or J_fn count moved gets a row, base ->
    change; equal counts print one line.  Neither is a verdict."""
    def counted(metric_fn, J_fn):
        return dict(_record(), counts={"metric_fn": metric_fn, "J_fn": J_fn})

    base, change = {CELL: counted(34, 50)}, {CELL: counted(18, 18)}
    assert drift.compare(base, change)[0] == []
    assert drift.count_changes(base, change).splitlines()[-1] == (
        "| hopf{n=2} | holonomy | fd | 1 | 34 -> 18 | 50 -> 18 |")
    assert drift.count_changes(base, base) == (
        "\nno evaluation count differs")


def test_a_nested_field_call_counts_once():
    """A field evaluated inside another counted field's call, as the calabi
    g+ metric rescales the g_ell one, is part of the outer evaluation: each
    point counts once, for the outer field.  A call that raises leaves the
    next call counted."""
    g_ell = SimpleNamespace(metric_fn=lambda q: np.ones(np.shape(q)[:-1]))
    g_plus = SimpleNamespace(metric_fn=lambda q: 2.0 * g_ell.metric_fn(q))

    def failing(q):
        g_ell.metric_fn(q)
        raise ValueError("outside")

    structures = {
        "ell": SimpleNamespace(chart=g_ell, J_fn=failing),
        "plus": SimpleNamespace(chart=g_plus,
                                J_fn=lambda q: g_plus.metric_fn(q))}
    module = SimpleNamespace(
        resolve_manifold=lambda selector: SimpleNamespace(
            structures=structures))
    counts = dict.fromkeys(drift.COUNTED, 0)
    drift._count_points(module, counts)
    module.resolve_manifold("calabi{ell=sin,b=pi}")
    points = np.zeros((5, 4))
    g_plus.metric_fn(points)
    structures["plus"].J_fn(points)
    assert counts == {"metric_fn": 5, "J_fn": 5}
    with pytest.raises(ValueError):
        structures["ell"].J_fn(points[:2])
    g_ell.metric_fn(points[0])
    assert counts == {"metric_fn": 6, "J_fn": 7}


def test_settable_values_in_one_tree_are_listed(tmp_path):
    """Dataclass fields and the defaulted parameters of public functions
    and methods, positional or keyword-only, are settable values; a private
    function's are not, and a value both trees have gets no row."""
    sources = {
        "base": ("from dataclasses import dataclass\n"
                 "@dataclass(frozen=True)\n"
                 "class Entry:\n    label: str\n    pair: tuple = None\n"
                 "def estimate(chart, n=None, *, steps=200):\n    pass\n"
                 "def _helper(count=3):\n    pass\n"),
        "change": ("import dataclasses\n"
                   "@dataclasses.dataclass\n"
                   "class Entry:\n    label: str\n    keys: tuple = None\n"
                   "def estimate(chart, n=None):\n    pass\n"
                   "class Field:\n    def __call__(self, p, nodes=32):\n"
                   "        pass\n    def _private(self, k=1):\n        pass\n")}
    for tree, text in sources.items():
        package = tmp_path / tree / "src" / "lckgeo"
        package.mkdir(parents=True)
        (package / "zoo.py").write_text(text)
    assert drift.settable_values(tmp_path / "change") == {
        "zoo.Entry.label", "zoo.Entry.keys", "zoo.estimate(n=)",
        "zoo.Field.__call__(nodes=)"}
    table = drift.settable_changes(tmp_path / "base", tmp_path / "change")
    assert table.splitlines()[1] == (
        "settable values in one tree only (4 in base, 4 in change)")
    assert table.splitlines()[-4:] == [
        "| zoo.Entry.keys | change |", "| zoo.Entry.pair | base |",
        "| zoo.Field.__call__(nodes=) | change |",
        "| zoo.estimate(steps=) | base |"]
    assert drift.settable_changes(tmp_path / "base", tmp_path / "base") == (
        "\nno settable value differs")
