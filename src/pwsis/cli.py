"""Command line front end.

Verbs: synth, solve, project, omega-opt, pipeline, compare-lattices,
examples, check.  All numeric output uses 12 significant digits and fixed
ordering, so identical inputs give byte-identical stdout and output files.

Thread caps have to be in the environment before numpy first loads, so this
module imports only the standard library at the top and defers the numeric
modules into the verb handlers; PWSIS_THREADS (a positive integer) is copied
into the usual BLAS/OpenMP knobs unless those are already set.
"""

import argparse
import os
import sys

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _apply_thread_cap():
    """Returns the invalid raw value if PWSIS_THREADS is unusable, else None."""
    raw = os.environ.get("PWSIS_THREADS")
    if raw is None or not raw.strip():
        return None
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        return raw
    for var in _THREAD_VARS:
        os.environ.setdefault(var, str(n))
    return None


_BAD_THREAD_CAP = _apply_thread_cap()


def _g(x):
    return "%.12g" % float(x)


def _cmd_synth(args):
    from . import spectral, textio

    scene = textio.read_scene(args.scene)
    lat = textio.read_lattice(args.lattice)
    offsets = textio.read_offsets(args.offsets, lat.d)
    # m |K| r^d is bounded as regrids are, before the grid is built (the cell
    # weight of a huge resolution overflows) and before anything is allocated
    r = args.resolution
    count = scene.n_channels * len(set(map(tuple, offsets.tolist()))) * r ** lat.d
    if r >= 1 and count > spectral._VALUE_CAP:
        raise ValueError("synthesized dataset too large: %d values exceeds the "
                         "supported bound %d" % (count, spectral._VALUE_CAP))
    grid = spectral.make_grid(lat, r, offsets)
    F = spectral.synthesize(scene, lat, grid)
    energy = F.energy().sum() if F.m else 0.0
    textio.write_dataset(F, args.out)
    print("channels %d" % F.m)
    print("energy %s" % _g(energy))
    return 0


def _read_mask(args, F):
    """The mask file args.mask, checked against F, read from args.data: an
    error naming both files and the first field of the grids that differs."""
    from . import textio

    mask = textio.read_mask(args.mask)
    field = F.grid.difference(mask.grid)
    if field is not None:
        raise ValueError("%s: grid differs from the dataset %s in its %s"
                         % (args.mask, args.data, field))
    return mask


def _model_length(model):
    dims = model.dims
    return int(dims.max()) if len(dims) else 0


def _cmd_solve(args):
    from . import solver, textio

    F = textio.read_dataset(args.data)
    group = textio.read_group_file(args.group, F.grid.d) if args.group else None
    mask = _read_mask(args, F) if args.mask else None
    if args.dump_gramian:
        from .fibers import gramian_field

        textio.write_gramian(gramian_field(F), args.dump_gramian)
    # only the errors and the model's dims are printed: no basis is kept
    if mask is not None:
        model, rep = solver.project_then_solve(F, mask, args.ell, group=group,
                                               _store=False)
    elif group is not None:
        model, rep = solver.best_gamma(F, group, args.ell, _store=False)
    else:
        model, rep = solver.best_sis(F, args.ell, _store=False)
    print("length %d" % _model_length(model))
    print("total error %s" % _g(rep.total_error))
    if rep.projected_error is not None:
        print("inside-band error %s" % _g(rep.projected_error))
        print("outside-band energy %s" % _g(rep.band_residual))
    for i in range(rep.per_channel.shape[0]):
        print("channel %d error %s" % (i, _g(rep.per_channel[i])))
    return 0


def _cmd_project(args):
    from . import spectral, textio

    F = textio.read_dataset(args.data)
    mask = _read_mask(args, F)
    # both energies are checked before the output is opened; the band holds
    # no copy of F, and is written a chunk at a time
    outside = spectral.residual_energy(F, mask)
    band = spectral.project_pw(F, mask)
    inside = band.energy()
    textio.write_dataset(band, args.out)
    print("inside-band energy %s" % _g(inside.sum() if F.m else 0.0))
    print("outside-band energy %s" % _g(outside.sum()))
    return 0


def _cmd_omega_opt(args):
    from . import omega, textio

    F = textio.read_dataset(args.data)
    density = omega.energy_density(F)
    total = density.total()  # finite, so is every sum of boxes below
    if args.group:
        density = None  # best_omega_invariant builds its own
        group = textio.read_group_file(args.group, F.grid.d)
        mask, captured = omega.best_omega_invariant(F, group, args.measure)
    else:
        mask, captured = omega.best_omega(density, args.measure)
    textio.write_mask(mask, args.out)
    print("measure %s" % _g(mask.measure))
    print("captured %s" % _g(captured))
    print("residual %s" % _g(total - captured))
    return 0


def _cmd_pipeline(args):
    from . import solver, textio

    F = textio.read_dataset(args.data)
    mask = _read_mask(args, F)
    _, first = solver.project_then_solve(F, mask, args.ell, _store=False)
    _, second = solver.solve_then_project(F, mask, args.ell, _store=False)
    print("project-then-solve %s" % _g(first.total_error))
    print("solve-then-project %s" % _g(second.total_error))
    print("gap %s" % _g(second.total_error - first.total_error))
    return 0


def _cmd_compare_lattices(args):
    from . import solver, textio

    F = textio.read_dataset(args.data)
    # every lattice is checked against the dataset before the first row
    cuts = []
    for lineno, lat in textio._read_lattice_rows(args.lattices):
        try:
            cuts.append(solver._lattice_cut(F, lat))
        except ValueError as e:
            raise ValueError("%s line %d: %s" % (args.lattices, lineno, e))
    for i, cut in enumerate(cuts):
        ef = cut(args.ell)
        print("lattice %d error %s length %d" % (i, _g(ef.error), ef.length))
    return 0


def _row_line(example_id, row):
    if row.kind == "int":
        body = "computed %d expected %d" % (row.computed, row.expected)
    elif row.kind == "less":
        body = "computed %s expected < %s" % (_g(row.computed), _g(row.expected))
    elif row.kind == "greater":
        body = "computed %s expected > %s" % (_g(row.computed), _g(row.expected))
    else:
        body = "computed %s expected %s (%s tol %s)" % (
            _g(row.computed), _g(row.expected), row.kind, _g(row.tol))
    return "%s %s: %s %s" % (example_id, row.label, body,
                             "PASS" if row.ok else "FAIL")


def _cmd_examples(args):
    from . import examples

    ids = [args.id] if args.id else list(examples.EXAMPLE_IDS)
    n_pass = 0
    for example_id in ids:
        report = examples.reproduce_example(example_id)
        for row in report.rows:
            print(_row_line(example_id, row))
        for note in report.notes:
            print("%s note: %s" % (example_id, note))
        print("%s: %s" % (example_id, "PASS" if report.passed else "FAIL"))
        n_pass += bool(report.passed)
    print("examples: %d/%d passed" % (n_pass, len(ids)))
    return 0 if n_pass == len(ids) else 1


def _cmd_check(args):
    from . import suites

    chosen = [args.suite] if args.suite else None
    results = suites.run_property_suites(seed=args.seed, suites=chosen)
    n_fail = 0
    for res in results:
        print("suite %s: %d/%d passed" % (res.name, res.count - len(res.failures),
                                          res.count))
        for k, message, artifact in res.failures:
            line = "  instance %d: %s" % (k, message)
            if artifact:
                line += " (replay: %s)" % artifact
            print(line)
        n_fail += len(res.failures)
    return 1 if n_fail else 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pwsis",
        description="Optimal lattice- and group-invariant subspace "
                    "approximation of band-limited signal families.")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    p = sub.add_parser("synth", help="sample a scene description into a dataset")
    p.add_argument("--scene", required=True, help="scene description file")
    p.add_argument("--lattice", required=True, help="lattice file (d*d reals)")
    p.add_argument("--resolution", type=int, required=True, help="boxes per torus unit")
    p.add_argument("--offsets", required=True, help="dual offset file (rows of d ints)")
    p.add_argument("--out", required=True, help="output dataset file")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("solve", help="optimal invariant subspace of length <= ell")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--ell", type=int, required=True, help="maximum subspace length")
    p.add_argument("--group", help="point group file (integer matrices)")
    p.add_argument("--mask", help="band mask file; solves inside the band")
    p.add_argument("--dump-gramian", help="debug: write the per-cell Gramian field")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("project", help="band-limit a dataset by a mask")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--mask", required=True, help="band mask file")
    p.add_argument("--out", required=True, help="output dataset file")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("omega-opt", help="best band of prescribed measure")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--measure", type=float, required=True, help="band measure")
    p.add_argument("--group", help="point group file; selects whole orbits")
    p.add_argument("--out", required=True, help="output mask file")
    p.set_defaults(func=_cmd_omega_opt)

    p = sub.add_parser("pipeline", help="project-then-solve vs solve-then-project")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--mask", required=True, help="band mask file")
    p.add_argument("--ell", type=int, required=True, help="maximum subspace length")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("compare-lattices", help="per-lattice optimum for one dataset")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--lattices", required=True, help="file with one lattice per line")
    p.add_argument("--ell", type=int, required=True, help="maximum subspace length")
    p.set_defaults(func=_cmd_compare_lattices)

    p = sub.add_parser("examples", help="reproduce the built-in worked examples")
    p.add_argument("--id", help="one example id (default: all)")
    p.set_defaults(func=_cmd_examples)

    p = sub.add_parser("check", help="run the randomized property suites")
    p.add_argument("--suite", help="one suite name (default: all)")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None):
    if _BAD_THREAD_CAP is not None:
        print("error: PWSIS_THREADS must be a positive integer, got %r"
              % _BAD_THREAD_CAP, file=sys.stderr)
        return 2
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        from .spectral import SumOverflow

        source = vars(args).get("data") or vars(args).get("scene")
        if isinstance(e, SumOverflow) and source:  # raised without the file's name
            e = "%s: %s" % (source, e)
        print("error: %s" % e, file=sys.stderr)
        return 2
    except RuntimeError as e:
        # an internal fault (a failed self-check or eigensolve), not bad input
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
