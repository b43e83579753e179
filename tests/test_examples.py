import pytest

from conftest import traced_peak
from pwsis.examples import EXAMPLE_IDS, reproduce_example

ABS_TOL = 1e-10


def test_example_ids_are_fixed():
    assert EXAMPLE_IDS == ("3.6", "6.1", "6.2", "6.3", "6.4", "6.5")


def test_unknown_id_lists_known_ones():
    with pytest.raises(ValueError, match="unknown example id '9.9'"):
        reproduce_example("9.9")


def test_pipeline_gap_configuration():
    report = reproduce_example("3.6", r=2)
    assert report.passed
    by_label = {row.label: row for row in report.rows}
    assert abs(by_label["unconstrained optimal error, one generator"].computed - 2.0) <= ABS_TOL
    assert abs(by_label["project-then-solve total error"].computed - 8.0) <= ABS_TOL
    assert abs(by_label["solve-then-project total error"].computed - 10.0) <= ABS_TOL
    assert all(row.ok for row in report.rows)


def test_refinement_configurations():
    rep = reproduce_example("6.1", r=4)
    assert rep.passed
    errs = [row.computed for row in rep.rows]
    assert max(abs(e) for e in errs) <= ABS_TOL
    rep = reproduce_example("6.2", r=4)
    by_label = {row.label: row for row in rep.rows}
    assert abs(by_label["optimal error on the base lattice"].computed - 0.5) <= ABS_TOL
    assert abs(by_label["optimal error on the half-step lattice"].computed) <= ABS_TOL
    with pytest.raises(ValueError, match="must be even"):
        reproduce_example("6.1", r=3)


def test_resolution_alignment_validation():
    with pytest.raises(ValueError, match="multiple of 25"):
        reproduce_example("6.5", r=30)


def test_length_rows_are_integers():
    rep = reproduce_example("6.4", r=50)
    by_label = {row.label: row for row in rep.rows}
    assert by_label["subspace length, square lattice"].computed == 1
    assert by_label["subspace length, rotated lattice"].computed == 2
    assert by_label["subspace length, square lattice"].kind == "int"


def test_example_6_4_cuts_hold_the_dataset_and_one_block():
    # both lattices' cuts read fibers gathered from the pairs, always a
    # copy, which each block holds beside its conjugate: counted once, the
    # blocks took twice their budget and the traced peak was 2.96 MiB
    report, peak = traced_peak(lambda: reproduce_example("6.4"))
    assert report.passed
    assert peak < 2.4 * 2 ** 20


def test_example_6_5_synthesis_and_cut_stay_small():
    # both lattices' scenes at r = 1000, 5 x 25 x 10^6 samples each, are
    # stored as their nonzero (offset, cell) pairs and cut from them: the
    # traced peak is a few MB, where the dense array alone took 1.9 GiB
    report, peak = traced_peak(lambda: reproduce_example("6.5"))
    assert report.passed
    assert peak < 8 * 2 ** 20
