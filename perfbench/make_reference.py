"""Regenerate ``reference.json``: the digests the correctness gate checks.

For every scale × window set the benchmark can draw, this runs the full
matrix through ``Executor`` and records the digest of each
``ConfigResult.to_dict()`` (every simulated statistic: path length per
region, CP, scaled CP, mix, windowed ILP), its path length, and the
digests of the artifacts ``render_suite_artifacts`` renders for the
whole matrix and for each single-workload suite of the serve-dist menu.

The reference pins the simulator's outputs as they are; no statistic
here is validated against hardware. Regenerate only when a change is
meant to alter simulated statistics::

    PYTHONPATH=src python3 perfbench/make_reference.py

Options restrict the sets, which the self-tests use on tiny inputs.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402


def default_sets(matrix_scale: float = common.MATRIX_SCALE,
                 serve_scales=common.SERVE_SCALES
                 ) -> list[tuple[float, tuple[int, ...], bool]]:
    """``(scale, windows, whole_matrix_artifacts)`` for every draw."""
    sets = [(matrix_scale, common.PAPER_WINDOWS, True)]
    sets += [(matrix_scale, w, True) for w in common.ALT_WINDOWS]
    for scale in serve_scales:
        for windows in common.SERVE_WINDOWS:
            if (scale, windows, True) not in sets:
                sets.append((scale, windows, False))
    return sets


def build(sets, workloads, cache_dir: str) -> dict:
    from repro.harness import Executor, ResultCache, plan_suite
    from repro.harness.plan import suite_params_doc
    from repro.serve.app import assemble_suite, render_suite_artifacts

    reference: dict = {"configs": {}, "suites": {}}
    executor = Executor(jobs=common.nproc(), cache=ResultCache(cache_dir))
    for scale, windows, whole in sets:
        plans = plan_suite(scale, workloads=workloads, windowed=True,
                           window_sizes=windows)
        results = executor.run(plans)
        for plan, result in results.items():
            key = common.config_key(plan.workload, plan.isa, plan.profile,
                                    scale, windows)
            reference["configs"][key] = {
                "digest": common.digest_doc(result.to_dict()),
                "path_length": result.path_length}
        groups = [tuple(workloads)] if whole else []
        if windows in common.SERVE_WINDOWS:
            groups += [(name,) for name in workloads]
        for group in groups:
            params = suite_params_doc(scale, workloads=group, windowed=True,
                                      window_sizes=windows)
            subset = {p: r for p, r in results.items()
                      if p.workload in group}
            artifacts = render_suite_artifacts(
                assemble_suite(params, subset), windowed=True)
            reference["suites"][common.suite_key(group, scale, windows)] = {
                name: common.digest_text(text)
                for name, text in sorted(artifacts.items())}
        print(f"  {common.suite_key(workloads, scale, windows)}: "
              f"{len(plans)} configs", file=sys.stderr, flush=True)
    return reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=common.REFERENCE)
    parser.add_argument("--workloads", default=",".join(common.WORKLOADS))
    parser.add_argument("--scale", type=float, default=None,
                        help="use this one scale for the matrix and the "
                             "serve menu")
    args = parser.parse_args(argv)
    workloads = tuple(args.workloads.split(","))
    sets = (default_sets() if args.scale is None
            else default_sets(args.scale, (args.scale,)))
    common.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=common.WORK) as cache_dir:
        reference = build(sets, workloads, cache_dir)
    args.out.write_text(json.dumps(reference, indent=1, sort_keys=True)
                        + "\n")
    print(f"wrote {args.out}: {len(reference['configs'])} configs, "
          f"{len(reference['suites'])} suites", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
