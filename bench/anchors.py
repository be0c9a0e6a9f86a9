"""Fixed-size rows that answer the roadmap's baseline table.

Each row times one call pattern on fixed inputs, untraced, so later changes
can report against it: the decode sweep over 0..10^5, one crafted eps0
decode (k=100, width 12), fgh_eval(w^w, 3) at three budgets, build_q_table
(2, 12), verify over 10^6 z, solve_E over 10^5 x, and the interpreter's steps
per second on one long run.
"""

import time

import tmref as ref
from workloads import BOUNCER

SIZES = {
    "full": dict(sweep=10 ** 5, eps0_k=100, budgets=(10 ** 5, 2 * 10 ** 5, 4 * 10 ** 5), q_n=12,
                 verify=10 ** 6, solve=10 ** 5, bouncer=2000),
    "tiny": dict(sweep=2000, eps0_k=2, budgets=(10 ** 2, 2 * 10 ** 2, 4 * 10 ** 2), q_n=4,
                 verify=10 ** 3, solve=10 ** 2, bouncer=50),
}


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def anchors(T, size):
    p = SIZES[size]
    out = {}

    def sweep():
        for i in range(p["sweep"]):
            T.decode_index(i)

    out["anchor.decode_sweep_s"] = timed(sweep)[0]
    eps0 = ref.TAG_SIGMA + ref.fgh_spec_bits("eps0", p["eps0_k"], 12)
    out["anchor.decode_eps0_s"] = timed(T.decode_index, ref.position(eps0))[0]
    ww = T.ord_parse("w^w")
    for budget, name in zip(p["budgets"], ("1x", "2x", "4x")):
        out["anchor.fgh_ww3_%s_s" % name] = timed(T.fgh_eval, ww, 3, budget)[0]
    out["anchor.build_q_table_s"] = timed(T.build_q_table, T.ord_parse("2"), p["q_n"])[0]

    def verify():
        for z in range(p["verify"]):
            T.verify(z)

    def solve():
        for x in range(p["solve"]):
            T.solve_E(x)

    out["anchor.verify_s"] = timed(verify)[0]
    out["anchor.solve_E_s"] = timed(solve)[0]
    table = T.MachineTable(tuple(T.Rule(*r) for r in BOUNCER))
    took, result = timed(T.run, table, "1" * p["bouncer"], 10 ** 7)
    out["anchor.run_steps_per_s"] = result.steps / took
    return out
