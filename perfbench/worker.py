"""One workload in one fresh interpreter: import symcon, run, check, report.

Usage: python3 perfbench/worker.py <workload> --mode plain|spans|counts|setup
                                   --t0 <time.monotonic() at spawn> [--smoke]

The last stdout line is a JSON object: setup_s (spawn to `import symcon`
returning), wall_s (after the import to the last result), peak_rss_mb,
attempted, failed, wrong and problems, and setup_kernel_s, the time of
the reference kernel (hostspeed.py) right after the import.  `plain` mode
also times the kernel while the workload runs and adds kernel_s and
wall_ref_s, the wall time in reference seconds.  `spans` mode adds the
per-layer metrics and writes the spans to perfbench/out/; `counts` mode
adds the Fraction operation counts.  The independent output checks run
after the timed region and after the peak RSS is read.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import symcon  # noqa: E402  (setup_s ends here)

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import symcon.cli  # noqa: E402  (loaded before any timing, in every mode)

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402

# Fixed inputs of each workload; `smoke` is a small version for the tests.
SIZES = {
    "full": {"catalog_max_n": 12, "expand_n": 20, "routes_n": 20, "thm59_n": 16},
    "smoke": {"catalog_max_n": 5, "expand_n": 8, "routes_n": 8, "thm59_n": 6},
}
THM59_KS = range(1, 7)
TABLE_BLOCKS = {
    "t1": ("psi",),
    "t2": ("eps",),
    "t3": ("psi-a", "psi-abar"),
    "t4": ("eps-a", "eps-abar"),
}


def _cli(argv):
    """symcon.cli.main(argv) with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = symcon.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Workloads: run() is timed and returns raw outputs; check() is not timed.


def run_catalog(size, trace):
    return _cli(["verify", "all", "--max-n", str(size["catalog_max_n"]), "--format", "json"])


def check_catalog(size, raw):
    """One operation per planned (entry, n) check."""
    from symcon.verify import select_entries

    max_n = size["catalog_max_n"]
    plan = [(e.id, n) for e in select_entries("all") for n in e.ns(max_n)]
    code, out, err = raw
    errors, wrong, problems = 0, 0, []
    try:
        results = [json.loads(line) for line in out.splitlines() if line.strip()]
    except ValueError:
        results = []
        wrong += 1
        problems.append("catalog: output is not JSON lines")
    got = {(r["id"], r["n"]): r for r in results}
    if code == 2:
        problems.append(f"catalog: SymconError: {err.strip()}")
    if len(results) != len(got) or [(r["id"], r["n"]) for r in results] != plan[: len(results)]:
        wrong += 1
        problems.append("catalog: results out of plan order or repeated")
    for cid, n in plan:
        res = got.get((cid, n))
        if res is None:
            if code == 2:
                errors += 1
            else:
                wrong += 1
                problems.append(f"catalog: no result for {cid} n={n}")
            continue
        if res["status"] == "FAIL":
            wrong += 1
            problems.append(f"catalog: FAIL {cid} n={n} {res.get('detail')}")
        elif cid.startswith("cex."):
            detail = res["detail"]
            want = str(1 - oracle.odd_sign_count(n)) if cid == "cex.a" else "-1"
            if res["status"] != "REPORT" or not detail["mult"] == detail["expected"] == want:
                wrong += 1
                problems.append(f"catalog: {cid} n={n} {detail} (expected mult {want})")
    return len(plan), errors, wrong, problems


def run_expand(size, trace):
    n = str(size["expand_n"])
    out = []
    for kind in TABLE_BLOCKS:
        trace.run_id = len(out)
        out.append((kind, _cli(["table", kind, n, "--max-n", n, "--format", "json"])))
    return out


def check_expand(size, raw):
    """One operation per expansion (six per round)."""
    n = size["expand_n"]
    attempted = errors = wrong = 0
    problems = []
    for kind, (code, out, err) in raw:
        names = TABLE_BLOCKS[kind]
        attempted += len(names)
        if code != 0:
            errors += len(names)
            problems.append(f"table {kind}: exit {code}: {err.strip()}")
            continue
        try:
            blocks = json.loads(out)["blocks"]
        except (ValueError, KeyError):
            blocks = {}
        for name in names:
            block = blocks.get(name)
            if block is None or block["n"] != n:
                wrong += 1
                problems.append(f"table {kind}: no block {name} at n={n}")
                continue
            mults = {oracle.parse_partition(k): v for k, v in block["mults"].items()}
            bad = oracle.check_expansion(name, n, mults, block["verdict"])
            if bad:
                wrong += 1
                problems += bad
    return attempted, errors, wrong, problems


def run_routes(size, trace):
    from symcon import SymconError
    from symcon.partitions import FamilySpec
    from symcon.repmodels import (
        MODULE_IDS, foulkes_series, module_char, module_char_plethystic, power_sum_family,
    )
    from symcon.symfunc import omega, plethystic_sum, product_expansion

    n, m = size["routes_n"], size["thm59_n"]
    out = []
    for mid in MODULE_IDS:
        trace.run_id = len(out)
        try:
            closed, pleth = module_char(mid, n), module_char_plethystic(mid, n)
            out.append((f"routes.{mid}", [closed, pleth], closed == pleth))
        except SymconError as exc:
            out.append((f"routes.{mid}", exc, False))
    for k in THM59_KS:
        trace.run_id = len(out)
        try:
            F = foulkes_series(k, m)
            sym = plethystic_sum(F, m, "h")
            fam = power_sum_family(FamilySpec("divides-k", k=k), m)
            prod = product_expansion([(d, -1, -1) for d in range(1, m + 1) if k % d == 0], m)
            ext = omega(plethystic_sum(F, m, "e"))
            fam59 = power_sum_family(FamilySpec("thm59", k=k), m)
            same = sym == fam == prod and ext == fam59
            out.append((f"thm5.9:k{k}", [sym, fam, prod, ext, fam59], same))
        except SymconError as exc:
            out.append((f"thm5.9:k{k}", exc, False))
    return out


def check_routes(size, raw):
    """One operation per route comparison: ten modules and six values of k."""
    n, m = size["routes_n"], size["thm59_n"]
    errors = wrong = 0
    problems = []
    for label, exprs, same in raw:
        if isinstance(exprs, Exception):
            errors += 1
            problems.append(f"{label}: {type(exprs).__name__}: {exprs}")
            continue
        bad = check_route(label, [e.terms for e in exprs], same, n, m)
        if bad:
            wrong += 1
            problems += bad
    return len(raw), errors, wrong, problems


def check_route(label, terms, same, n, m):
    """The routes of one comparison agree exactly with each other and with the closed form."""
    if label.startswith("routes."):
        mid = label.split(".", 1)[1]
        closed, pleth = terms
        want = oracle.module_terms(mid, n)
        bad = oracle.check_equal_terms(f"{label} closed vs plethystic", closed, pleth)
        bad += oracle.check_equal_terms(f"{label} vs closed form", closed, want)
    else:
        k = int(label.split(":k")[1])
        sym, fam, prod, ext, fam59 = terms
        divides = oracle.family_terms(lambda lam: oracle.divides_k(lam, k), m)
        bad = []
        for name, got in (("sum H", sym), ("divides-k", fam), ("product", prod)):
            bad += oracle.check_equal_terms(f"{label} {name} vs divides-k", got, divides)
        want59 = oracle.family_terms(lambda lam: oracle.thm59_member(lam, k), m)
        for name, got in (("omega sum E", ext), ("thm59 family", fam59)):
            bad += oracle.check_equal_terms(f"{label} {name} vs thm59", got, want59)
    if not same and not bad:
        bad.append(f"{label}: symcon's == said the routes differ")
    return bad


WORKLOADS = {
    "catalog": (run_catalog, check_catalog),
    "expand-20": (run_expand, check_expand),
    "routes-20": (run_routes, check_routes),
}


class _NoTrace:
    run_id = -1


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--mode", choices=("plain", "spans", "counts", "setup"), default="plain")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    report = {"setup_s": IMPORTED - args.t0, "symcon": os.path.dirname(symcon.__file__)}
    report["setup_kernel_s"] = hostspeed.setup_kernel()
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    size = SIZES["smoke" if args.smoke else "full"]
    run, check = WORKLOADS[args.workload]
    trace = _NoTrace()
    if args.mode == "spans":
        from symcon import characters, verify

        build_table, mn = characters._build_table, characters._mn
        trace = tracing.Tracer()
        originals = tracing.patch_symcon(trace)
        missed = tracing.unpatched_references(originals)
        if missed:
            raise SystemExit(f"tracing missed {missed}")
        trace.wrap("verify.build_catalog", verify._build_catalog)()
    elif args.mode == "counts":
        fractions = tracing.count_fractions()

    if args.mode == "plain":
        # Only the untraced pass gives end-to-end figures, so only it samples the host.
        with hostspeed.Sampler() as host:
            raw = run(size, trace)
        wall = host.work_s
        report["kernel_s"] = sum(host.samples) / len(host.samples)
        report["wall_ref_s"] = wall * hostspeed.scale(host.samples)
    else:
        t_start = time.perf_counter()
        raw = run(size, trace)
        wall = time.perf_counter() - t_start
    report["wall_s"] = wall
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.mode == "spans":
        report["layers"] = tracing.layer_metrics(trace, build_table, mn)
        os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)
        path = os.path.join(
            ROOT, "perfbench", "out",
            f"spans-{args.workload}{'-smoke' if args.smoke else ''}.json.gz",
        )
        trace.write(path, {"workload": args.workload, "smoke": args.smoke, "wall_s": wall})
        report["spans_file"] = os.path.relpath(path, ROOT)
        report["spans"] = len(trace.start)
    elif args.mode == "counts":
        report["layers"] = {name: fractions[name] for name in tracing.FRACTION_METRICS}

    attempted, errors, wrong, problems = check(size, raw)
    report.update(attempted=attempted, failed=errors + wrong, wrong=wrong, problems=problems[:20])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
