"""Command-line interface: ``pooled-repro <command>`` (or ``python -m repro.cli``).

One subcommand per paper artefact:

===========  =====================================================
fig1         print the worked Fig. 1 example
fig2         required queries vs n (writes results/fig2.csv)
fig3         success rate vs m for one panel
fig4         overlap vs m for one panel
fignoise     noisy-channel robustness phase diagram (§VI extension)
figdecoders  (θ, decoder) recovery phase diagram (§I-B/§I-D baselines)
claims       the §VI in-text claim table
it           empirical Theorem-2 phase transition (exhaustive)
thresh       threshold constants table across θ
design       compiled-design lifecycle: build | info | decode | store
serve        async decode service with request coalescing (NDJSON)
===========  =====================================================

The ``design`` group is the deploy-time face of the sample→compile→decode
lifecycle: ``build`` compiles a stream-keyed design once and persists the
artifact, ``info`` inspects it, ``decode`` serves observed result vectors
against it without ever re-streaming the design, and ``store`` manages
the cross-process compiled-design store (``ls | gc | fsck | stats``; see
``REPRO_DESIGN_STORE``).  ``serve`` runs the long-lived decode service:
concurrent single-signal requests coalesce into micro-batches against
store-attached compiled designs (see ``docs/serving.md``).

All sweeps accept ``--trials`` and ``--workers``; defaults are laptop-scale
(see EXPERIMENTS.md for the paper-scale invocations).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.design import PoolingDesign
from repro.core.signal import theta_to_k
from repro.core.thresholds import (
    gt_rate,
    karimi_rate,
    m_counting_exact,
    m_information_parallel,
    m_mn_threshold,
)
from repro.util.asciiplot import format_table

__all__ = ["main", "build_parser"]


def _workers_count(value: str) -> int:
    """argparse ``type=`` of every ``--workers`` flag: a count ``>= 0``."""
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if workers < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (0 = all cores), got {workers}")
    return workers


def _add_workers(parser: argparse.ArgumentParser, default: int) -> None:
    parser.add_argument(
        "--workers",
        type=_workers_count,
        default=default,
        help=f"worker processes: 0 = all cores, 1 = inline (default: {default})",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(prog="pooled-repro", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fig1", help="print the worked Fig. 1 example")

    p2 = sub.add_parser("fig2", help="required queries vs n")
    p2.add_argument("--ns", type=int, nargs="+", default=None, help="signal lengths")
    p2.add_argument("--thetas", type=float, nargs="+", default=[0.1, 0.2, 0.3, 0.4])
    p2.add_argument("--trials", type=int, default=10)
    _add_workers(p2, 0)
    p2.add_argument("--seed", type=int, default=0)

    for name in ("fig3", "fig4"):
        p = sub.add_parser(name, help=f"{name}: {'success' if name == 'fig3' else 'overlap'} vs m")
        p.add_argument("--n", type=int, default=1000)
        p.add_argument("--thetas", type=float, nargs="+", default=[0.1, 0.2, 0.3, 0.4])
        p.add_argument("--points", type=int, default=12)
        p.add_argument("--trials", type=int, default=20)
        _add_workers(p, 0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--engine",
            choices=("trial", "batched"),
            default="trial",
            help="per-trial loop (classic statistics) or batched grid (one design per point, trials vectorised)",
        )

    pn = sub.add_parser("fignoise", help="fignoise: noisy-channel robustness phase diagram")
    pn.add_argument("--n", type=int, default=1000)
    pn.add_argument("--thetas", type=float, nargs="+", default=[0.1, 0.2, 0.3, 0.4])
    pn.add_argument(
        "--noise",
        type=str,
        default="gaussian:2.0",
        help="channel spec '<family>:<max level>' (gaussian = additive std, dropout = per-occurrence drop prob)",
    )
    pn.add_argument("--levels", type=float, nargs="+", default=None, help="explicit level grid (default: 0..max)")
    pn.add_argument("--points", type=int, default=5, help="level-grid size when --levels is omitted")
    pn.add_argument("--m", type=int, default=None, help="shared query budget (default: 1.25x the per-theta threshold)")
    pn.add_argument("--repeats", type=int, default=1, help="repeat-query averaging factor")
    pn.add_argument("--trials", type=int, default=20)
    _add_workers(pn, 1)
    pn.add_argument("--seed", type=int, default=0)
    pn.add_argument(
        "--engine",
        choices=("batched", "trial"),
        default="batched",
        help="batched grid (one design per theta, trials vectorised) or classic per-trial streaming loop",
    )

    pg = sub.add_parser("figdecoders", help="figdecoders: (theta, decoder) recovery phase diagram")
    pg.add_argument("--n", type=int, default=1000)
    pg.add_argument("--thetas", type=float, nargs="+", default=[0.1, 0.2, 0.3, 0.4])
    pg.add_argument(
        "--decoders",
        type=str,
        nargs="+",
        default=None,
        help="registry decoder columns (default: mn lp omp amp comp dd)",
    )
    pg.add_argument("--m", type=int, default=None, help="shared query budget (default: 1.25x the per-theta threshold)")
    pg.add_argument("--trials", type=int, default=20)
    _add_workers(pg, 1)
    pg.add_argument("--seed", type=int, default=0)

    pc = sub.add_parser("claims", help="§VI in-text claim table")
    pc.add_argument("--trials", type=int, default=50)
    _add_workers(pc, 0)

    pi = sub.add_parser("it", help="Theorem-2 phase transition (exhaustive decoder)")
    pi.add_argument("--n", type=int, default=30)
    pi.add_argument("--k", type=int, default=3)
    pi.add_argument("--trials", type=int, default=20)
    _add_workers(pi, 0)
    pi.add_argument("--seed", type=int, default=0)

    pt = sub.add_parser("thresh", help="threshold constants table")
    pt.add_argument("--n", type=int, default=10000)
    pt.add_argument("--thetas", type=float, nargs="+", default=[0.1, 0.2, 0.3, 0.4, 0.5])

    pd = sub.add_parser("design", help="compiled-design lifecycle: build | info | decode | store")
    dsub = pd.add_subparsers(dest="design_command", required=True)

    db = dsub.add_parser("build", help="compile a stream-keyed design and persist the artifact")
    db.add_argument("--n", type=int, required=True, help="signal length")
    db.add_argument("--m", type=int, required=True, help="number of parallel queries")
    db.add_argument("--gamma", type=int, default=None, help="pool size (default n // 2)")
    db.add_argument("--seed", type=int, default=0, help="stream root seed")
    db.add_argument("--batch-queries", type=int, default=256, help="streaming batch size (part of the design key)")
    db.add_argument("--out", type=str, required=True, help="output .npz path")

    di = dsub.add_parser("info", help="inspect a persisted design artifact")
    di.add_argument("path", type=str, help="design .npz file")

    dd = dsub.add_parser("decode", help="decode observed results against a persisted artifact")
    dd.add_argument("path", type=str, help="design .npz file")
    dd.add_argument("--k", type=int, required=True, help="signal weight")
    dd.add_argument("--y-file", type=str, default=None, help="whitespace-separated result counts (default: results stored in the artifact)")
    dd.add_argument("--decoder", type=str, default="mn", help="registry decoder to run (mn, lp, omp, amp, comp, dd)")

    ds = dsub.add_parser("store", help="cross-process design store: ls | gc | fsck | stats")
    ssub = ds.add_subparsers(dest="store_command", required=True)
    for name, help_text in (
        ("ls", "list persisted compiled designs (most recently used first)"),
        ("gc", "reap crash residue, then evict LRU entries down to a byte budget"),
        ("fsck", "verify every entry's integrity manifest; quarantine failures"),
        ("stats", "footprint and cumulative cross-process counters"),
    ):
        sp = ssub.add_parser(name, help=help_text)
        sp.add_argument(
            "--store",
            type=str,
            default=None,
            help=f"store directory (default: ${{{'REPRO_DESIGN_STORE'}}})",
        )
        if name == "gc":
            sp.add_argument("--max-bytes", type=int, default=None, help="byte budget (default: the store's configured budget; none = residue reaping only)")
            sp.add_argument("--grace-s", type=float, default=None, help="age (seconds) before crash residue is reaped (default 3600)")

    ps = sub.add_parser(
        "serve",
        help="async decode service with request coalescing (NDJSON over stdio or TCP)",
        epilog="An omitted tuning flag keeps its ServeConfig default (listed in docs/cli.md).",
    )
    mode = ps.add_mutually_exclusive_group()
    mode.add_argument("--stdio", action="store_true", help="speak the protocol on stdin/stdout instead of TCP")
    mode.add_argument("--host", type=str, default=None, help="TCP bind address (default 127.0.0.1)")
    ps.add_argument("--port", type=int, default=0, help="TCP port (0 = ephemeral; the bound port is printed on startup)")
    # Every tuning flag defaults to None: an omitted flag keeps its
    # ServeConfig field default, the one place those defaults live.
    ps.add_argument("--max-batch", type=int, default=None, help="largest micro-batch; a full bucket dispatches at once")
    ps.add_argument(
        "--max-queue",
        type=int,
        default=None,
        help="admission bound on pending requests; beyond it requests get a structured 'overloaded' error",
    )
    ps.add_argument("--timeout-ms", type=float, default=None, help="per-request deadline, queueing included")
    ps.add_argument("--max-designs", type=int, default=None, help="LRU capacity of attached decoders (designs served concurrently)")
    ps.add_argument("--breaker-threshold", type=int, default=None, help="consecutive batch failures that open a key's circuit breaker")
    ps.add_argument("--breaker-cooldown-ms", type=float, default=None, help="open-breaker cooldown before a half-open probe")
    ps.add_argument("--decode-retries", type=int, default=None, help="failed-batch retries on a freshly attached decoder")
    ps.add_argument(
        "--decoder",
        dest="default_decoder",
        metavar="DECODER",
        type=str,
        default=None,
        help="default registry decoder for requests without a 'decoder' field; every registered decoder stays servable by name",
    )
    ps.add_argument("--store", type=str, default=None, help="design-store directory for read-through compiles (default: $REPRO_DESIGN_STORE)")

    return parser


def _cmd_fig1() -> int:
    design, sigma = PoolingDesign.fig1_example()
    y = design.query_results(sigma)
    print("sigma =", sigma.tolist())
    for j in range(design.m):
        pool = (design.pool(j) + 1).tolist()  # 1-based, as in the figure
        print(f"  a{j + 1}: entries {pool} -> y{j + 1} = {int(y[j])}")
    print("results:", y.tolist(), "(paper: [2, 2, 3, 1, 1])")
    return 0


def _cmd_fig2(args) -> int:
    from repro.experiments.fig2 import DEFAULT_NS, run_fig2
    from repro.experiments.gnuplot import emit_fig2_script

    rows = run_fig2(
        ns=tuple(args.ns) if args.ns else DEFAULT_NS,
        thetas=tuple(args.thetas),
        trials=args.trials,
        root_seed=args.seed,
        workers=args.workers,
        plot=True,
    )
    gp = emit_fig2_script("fig2", thetas=tuple(args.thetas))
    print(f"[gnuplot script: {gp}]")
    table = [
        (f"{r.theta:.1f}", r.n, r.k, f"{r.required_m.mean:.0f}", f"{r.theory_m:.0f}", f"{r.theory_corrected:.0f}")
        for r in rows
    ]
    print(format_table(["theta", "n", "k", "m_required", "m_theory", "m_corrected"], table))
    return 0


def _cmd_fig34(args, which: str) -> int:
    from repro.experiments.fig3 import default_m_grid, run_fig3
    from repro.experiments.fig4 import run_fig4

    from repro.experiments.gnuplot import emit_fig34_script

    runner = run_fig3 if which == "fig3" else run_fig4
    csv_name = f"{which}_n{args.n}"
    series = runner(
        n=args.n,
        thetas=tuple(args.thetas),
        ms=default_m_grid(args.n, args.points),
        trials=args.trials,
        root_seed=args.seed,
        workers=args.workers,
        csv_name=csv_name,
        plot=True,
        engine=args.engine,
    )
    if which == "fig3":
        gp = emit_fig34_script(csv_name, metric="success", thetas=tuple(args.thetas))
        print(f"[gnuplot script: {gp}]")
    rows = []
    for s in series:
        for p in s.points:
            val = p.success if which == "fig3" else p.overlap
            rows.append((f"{s.theta:.1f}", p.m, f"{val.mean:.3f}", f"[{val.lo:.3f},{val.hi:.3f}]"))
    metric = "success" if which == "fig3" else "overlap"
    print(format_table(["theta", "m", metric, "95% CI"], rows))
    return 0


def _cmd_fignoise(args) -> int:
    from repro.experiments.fignoise import run_fignoise
    from repro.experiments.gnuplot import emit_fignoise_script
    from repro.noise.models import parse_noise_spec

    noise = parse_noise_spec(args.noise)
    csv_name = f"fignoise_n{args.n}"
    series = run_fignoise(
        n=args.n,
        noise=noise,
        thetas=tuple(args.thetas),
        levels=tuple(args.levels) if args.levels else None,
        points=args.points,
        m=args.m,
        trials=args.trials,
        root_seed=args.seed,
        repeats=args.repeats,
        workers=args.workers,
        csv_name=csv_name,
        plot=True,
        engine=args.engine,
    )
    gp = emit_fignoise_script(csv_name, thetas=tuple(args.thetas), noise_family=type(noise).__name__)
    print(f"[gnuplot script: {gp}]")
    # The phase diagram itself: rows are theta (with their budgets), columns
    # are noise levels, cells are exact-recovery rates.
    levels = [p.level for p in series[0].points] if series else []
    headers = ["theta", "m"] + [f"level={lv:g}" for lv in levels]
    table = [
        (f"{s.theta:.1f}", s.m, *(f"{p.success.mean:.3f}" for p in s.points))
        for s in series
    ]
    print(format_table(headers, table))
    return 0


def _cmd_figdecoders(args) -> int:
    from repro.experiments.figdecoders import DEFAULT_DECODER_GRID, run_figdecoders
    from repro.experiments.gnuplot import emit_figdecoders_script

    decoders = tuple(args.decoders) if args.decoders else DEFAULT_DECODER_GRID
    csv_name = f"figdecoders_n{args.n}"
    try:
        series = run_figdecoders(
            n=args.n,
            decoders=decoders,
            thetas=tuple(args.thetas),
            m=args.m,
            trials=args.trials,
            root_seed=args.seed,
            workers=args.workers,
            csv_name=csv_name,
            plot=True,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    gp = emit_figdecoders_script(csv_name, decoders=decoders)
    print(f"[gnuplot script: {gp}]")
    # The phase diagram itself: rows are theta (with their budgets),
    # columns are decoders, cells are exact-recovery rates.
    headers = ["theta", "m"] + list(decoders)
    by_decoder = {s.decoder: s.points for s in series}
    table = [
        (
            f"{p.theta:g}",
            p.m,
            *(f"{by_decoder[d][i].success.mean:.3f}" for d in decoders),
        )
        for i, p in enumerate(series[0].points)
    ]
    print(format_table(headers, table))
    return 0


def _cmd_claims(args) -> int:
    from repro.experiments.claims import run_claim_table

    rows = run_claim_table(trials=args.trials, workers=args.workers)
    table = [
        (
            r.label,
            r.n,
            f"{r.theta:.1f}",
            r.m,
            f"{r.paper_value:.2f}",
            f"{r.measured_overlap.mean:.3f}",
            f"{r.measured_success.mean:.3f}",
        )
        for r in rows
    ]
    print(format_table(["claim", "n", "theta", "m", "paper", "overlap", "success"], table))
    return 0


def _cmd_it(args) -> int:
    from repro.experiments.itcheck import run_it_threshold

    points = run_it_threshold(n=args.n, k=args.k, trials=args.trials, root_seed=args.seed, workers=args.workers)
    table = [(f"{p.c:.1f}", p.m, f"{p.unique.mean:.2f}", f"[{p.unique.lo:.2f},{p.unique.hi:.2f}]") for p in points]
    print(format_table(["c", "m", "P[unique]", "95% CI"], table))
    print("Theorem 2 predicts the transition at c = 2 (asymptotically).")
    return 0


def _cmd_thresh(args) -> int:
    rows = []
    for theta in args.thetas:
        k = theta_to_k(args.n, theta)
        if k < 2 or k >= args.n:
            continue
        rows.append(
            (
                f"{theta:.2f}",
                k,
                f"{m_counting_exact(args.n, k):.0f}",
                f"{m_information_parallel(args.n, k):.0f}",
                f"{m_mn_threshold(args.n, theta):.0f}",
                f"{karimi_rate(args.n, k, 1):.0f}",
                f"{gt_rate(args.n, k):.0f}",
            )
        )
    print(f"n = {args.n}")
    print(
        format_table(
            ["theta", "k", "counting", "IT parallel (Thm2)", "MN (Thm1)", "Karimi 1.515", "binary GT"],
            rows,
        )
    )
    return 0


def _design_rows(compiled, y) -> "list[tuple[str, str]]":
    """The ``design info`` table rows (shared by build and info)."""
    key = compiled.key
    return [
        ("n", str(compiled.n)),
        ("m", str(compiled.m)),
        ("gamma", str(compiled.gamma)),
        ("edges", str(compiled.design.draws)),
        ("scheme", key.scheme),
        ("key", f"(n={key.n}, m={key.m}, gamma={key.gamma}, root_seed={key.root_seed}, trial_key={key.trial_key}, batch_queries={key.batch_queries})"),
        ("bytes", str(compiled.nbytes)),
        ("psi block", "resident" if compiled.block_resident else "recomputed per decode"),
        ("stored y", "yes" if y is not None else "no"),
    ]


def _resolve_store_arg(path: "Optional[str]"):
    """The store a ``design store`` subcommand operates on (arg wins over env)."""
    from repro.designs import DesignStore, resolve_design_store

    if path is not None:
        return DesignStore(path)
    try:
        store = resolve_design_store(None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    if store is None:
        print("error: no store given; pass --store or set REPRO_DESIGN_STORE", file=sys.stderr)
    return store


def _cmd_design_store(args) -> int:
    store = _resolve_store_arg(args.store)
    if store is None:
        return 2
    if args.store_command == "ls":
        entries = store.ls()
        rows = [
            (e.digest[:12], str(e.key.n), str(e.key.m), e.key.scheme, str(e.nbytes))
            for e in entries
        ]
        print(format_table(["digest", "n", "m", "scheme", "bytes"], rows))
        print(f"{len(entries)} entries, {sum(e.nbytes for e in entries)} bytes in {store.root}")
        return 0
    if args.store_command == "gc":
        from repro.designs.store import RESIDUE_GRACE_S

        grace = args.grace_s if args.grace_s is not None else RESIDUE_GRACE_S
        budget = args.max_bytes if args.max_bytes is not None else store.max_bytes
        if budget is None:
            # No byte budget: gc still reaps crash residue (orphaned tmp
            # dirs, stale stats temps, aged quarantine holdings).
            reaped = store.reap_residue(grace_s=grace)
            print(f"reaped {reaped} residue item(s); no byte budget, no entries evicted")
            return 0
        evicted = store.gc(budget, residue_grace_s=grace)
        for e in evicted:
            print(f"evicted {e.digest[:12]} ({e.nbytes} bytes)")
        print(f"freed {sum(e.nbytes for e in evicted)} bytes; {store.nbytes} bytes remain (budget {budget})")
        return 0
    if args.store_command == "fsck":
        report = store.fsck()
        for digest in report.quarantined:
            print(f"quarantined {digest[:12]} (integrity check failed)")
        print(
            f"checked {report.checked} entries: {len(report.ok)} ok, "
            f"{len(report.quarantined)} quarantined; {report.residue} residue item(s), "
            f"{report.quarantine_held} held in quarantine"
        )
        return 0 if report.clean else 1
    if args.store_command == "stats":
        s = store.stats
        cumulative = store.persistent_stats()
        rows = [
            ("root", str(store.root)),
            ("entries", str(s.entries)),
            ("bytes", str(s.nbytes)),
            ("budget", str(store.max_bytes) if store.max_bytes is not None else "unbounded"),
            ("hits (all processes)", str(cumulative["hits"])),
            ("misses (all processes)", str(cumulative["misses"])),
            ("publishes (all processes)", str(cumulative["publishes"])),
            ("evictions (all processes)", str(cumulative["evictions"])),
            ("quarantined (all processes)", str(cumulative["quarantined"])),
        ]
        print(format_table(["field", "value"], rows))
        return 0
    raise AssertionError(f"unhandled store command {args.store_command!r}")


def _cmd_design(args) -> int:
    from repro.core.serialization import load_compiled_design, save_design

    if args.design_command == "store":
        return _cmd_design_store(args)
    if args.design_command == "build":
        from repro.designs import DesignKey, resolve_compiled, resolve_design_store

        key = DesignKey.for_stream(args.n, args.m, root_seed=args.seed, gamma=args.gamma, batch_queries=args.batch_queries)
        # Ambient REPRO_DESIGN_STORE makes repeated CLI builds of one key
        # attach the persisted compilation instead of redoing it.
        try:
            store = resolve_design_store(None)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        compiled = resolve_compiled(key, store=store)
        path = save_design(args.out, compiled)
        print(f"compiled design written to {path}")
        print(format_table(["field", "value"], _design_rows(compiled, None)))
        return 0
    if args.design_command == "info":
        compiled, y = load_compiled_design(args.path)
        print(format_table(["field", "value"], _design_rows(compiled, y)))
        return 0
    if args.design_command == "decode":
        import numpy as np

        from repro.designs import available_decoders, make_decoder

        compiled, y_stored = load_compiled_design(args.path)
        if args.decoder not in available_decoders():
            print(f"error: unknown decoder {args.decoder!r}; available: {', '.join(available_decoders())}", file=sys.stderr)
            return 2
        if args.y_file is not None:
            try:
                y = np.loadtxt(args.y_file, dtype=np.int64, ndmin=1)
            except ValueError as exc:
                print(f"error: could not parse {args.y_file} as integer counts: {exc}", file=sys.stderr)
                return 2
        elif y_stored is not None:
            y = y_stored
        else:
            print("error: the artifact stores no results; pass --y-file", file=sys.stderr)
            return 2
        if y.shape != (compiled.m,):
            print(f"error: expected {compiled.m} result counts, got {y.shape}", file=sys.stderr)
            return 2
        # A query result counts the draws of one pool, as the server checks.
        pool_sizes = np.diff(compiled.design.indptr)
        bad = np.flatnonzero((y < 0) | (y > pool_sizes))
        if bad.size:
            j = int(bad[0])
            print(f"error: y[{j}] = {int(y[j])} is not a count of query {j}, whose pool holds {int(pool_sizes[j])} draws", file=sys.stderr)
            return 2
        try:
            sigma_hat = make_decoder(args.decoder).compile(compiled).decode(y, args.k)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        support = np.flatnonzero(sigma_hat)
        print(f"decoder = {args.decoder}")
        print(f"k = {args.k}")
        print("support:", " ".join(str(int(i)) for i in support))
        return 0
    raise AssertionError(f"unhandled design command {args.design_command!r}")


def _cmd_serve(args) -> int:
    import asyncio
    from dataclasses import fields

    from repro.designs import (
        DesignStore,
        available_decoders,
        make_decoder,
        resolve_design_store,
    )
    from repro.serve import ServeConfig, serve_forever

    # An omitted flag parses as None and keeps the ServeConfig field default.
    overrides = {f.name: getattr(args, f.name) for f in fields(ServeConfig) if getattr(args, f.name, None) is not None}
    try:
        config = ServeConfig(**overrides)
        if config.default_decoder not in available_decoders():
            raise ValueError(f"unknown decoder {config.default_decoder!r}; available: {', '.join(available_decoders())}")
        store = DesignStore(args.store) if args.store is not None else resolve_design_store(None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # The server types against the Decoder protocol; the registry supplies
    # every servable family, so one process answers any decoder by name.
    decoders = {name: make_decoder(name) for name in available_decoders()}
    try:
        asyncio.run(
            serve_forever(
                decoders,
                config,
                stdio=args.stdio,
                host=args.host if args.host is not None else "127.0.0.1",
                port=args.port,
                store=store,
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - signal handler normally wins
        pass
    return 0


#: Commands that run simulations, and so read ``REPRO_KERNEL`` and the
#: ambient design store somewhere inside the sweep.
_SWEEP_COMMANDS = ("fig2", "fig3", "fig4", "fignoise", "figdecoders", "claims", "it")


def _check_ambient_settings() -> bool:
    """Resolve ``REPRO_KERNEL`` and the ambient store before a sweep starts.

    A malformed value then ends the command with ``error: …`` naming the
    variable, instead of a traceback from deep inside the first trial.
    """
    from repro.designs import resolve_design_store
    from repro.kernels import resolve_kernel

    try:
        resolve_kernel(None)
        resolve_design_store(None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def main(argv: "Optional[Sequence[str]]" = None) -> int:
    """Entry point; returns an exit code."""
    args = build_parser().parse_args(argv)
    if args.command in _SWEEP_COMMANDS and not _check_ambient_settings():
        return 2
    if args.command == "fig1":
        return _cmd_fig1()
    if args.command == "fig2":
        return _cmd_fig2(args)
    if args.command in ("fig3", "fig4"):
        return _cmd_fig34(args, args.command)
    if args.command == "fignoise":
        return _cmd_fignoise(args)
    if args.command == "figdecoders":
        return _cmd_figdecoders(args)
    if args.command == "claims":
        return _cmd_claims(args)
    if args.command == "it":
        return _cmd_it(args)
    if args.command == "thresh":
        return _cmd_thresh(args)
    if args.command == "design":
        return _cmd_design(args)
    if args.command == "serve":
        return _cmd_serve(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
