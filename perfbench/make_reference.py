"""Regenerate ``reference_mf.json``: per-trial peaks of mc-matched-filter's
first ``REFERENCE_OPS`` ops at the default workload seed, which every
untraced or traced run at that seed checks to 1e-6 relative.

    python3 perfbench/make_reference.py

Only regenerate after a change that is meant to alter the numbers.
"""

import json

import run

REFERENCE_OPS = 160   # about three times the ops of a 35 s run


def main() -> None:
    run.import_gwxlab()
    import workloads

    wl = workloads.McMatchedFilter(workloads.DEFAULT_SEED, run.OUT_DIR, with_reference=False)
    ops = [wl.peaks(wl.run(wl.prepare_op(i))) for i in range(REFERENCE_OPS)]
    header = json.dumps({"workload": wl.name, "workload_seed": workloads.DEFAULT_SEED,
                         "trials_per_op": wl.work_per_op})
    with open(workloads.REFERENCE_PATH, "w", encoding="ascii") as fh:
        fh.write(header[:-1] + ', "ops": [\n')
        fh.write(",\n".join(json.dumps(op) for op in ops))
        fh.write("\n]}\n")


if __name__ == "__main__":
    main()
