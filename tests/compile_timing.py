"""Time `FlowTable.flow_ids` on fixed traces; a script that pytest does not collect.

    PYTHONPATH=src python3 tests/compile_timing.py [--repeat 30]

Four traces on the `sip_sp_dp` ACL with the victims' allow rules (the
benchmark's table at seed 0), except the `sp_dp` probe trace, which runs on
the `sp_dp` one; each is compiled `--repeat` times on a fresh table:

- sip_sp_dp probe: the probe trace, 9537 headers in runs that share every
  field above `dport`;
- sp_dp probe: the probe trace, 289 headers;
- random 5-tuples: 9537 seeded random headers, so consecutive headers
  share no upper fields and every header walks the ACL's rules;
- shared uppers: 9537 headers in runs of 17 that share their upper fields
  (seeded random per run), each with a seeded random `dport`.

Prints one line per trace: its headers, the positions whose header repeats
the previous one above `dport`, and the median milliseconds of one compile.
"""

from __future__ import annotations

import argparse
import gc
import random
import statistics
import time

from tsesim.attack import UseCase, build_trace
from tsesim.engine import scenario_acl, victim_flow_headers
from tsesim.flow_cache import FlowTable
from tsesim.headers import FIVE_TUPLE, HeaderValue, header
from tsesim.slowpath import Acl

HEADERS = 9537  # the sip_sp_dp probe trace's length
RUN = 17
LAST = FIVE_TUPLE.fields[-1].width  # dport's bits, the lowest


def random_header(rng: random.Random) -> HeaderValue:
    return header(FIVE_TUPLE, **{f.name: rng.getrandbits(f.width) for f in FIVE_TUPLE.fields})


def traces() -> dict[str, tuple[Acl, list[HeaderValue]]]:
    victims = victim_flow_headers(FIVE_TUPLE, 2)
    acl = scenario_acl(UseCase.SIP_SP_DP, victims)
    sp_dp = scenario_acl(UseCase.SP_DP, victims)
    rng = random.Random(0)
    shared = []
    while len(shared) < HEADERS:
        upper = random_header(rng)
        shared += (HeaderValue(FIVE_TUPLE, upper.bits >> LAST << LAST | rng.getrandbits(LAST))
                   for _ in range(RUN))
    return {
        "sip_sp_dp probe": (acl, list(build_trace(UseCase.SIP_SP_DP, acl).packets)),
        "sp_dp probe": (sp_dp, list(build_trace(UseCase.SP_DP, sp_dp).packets)),
        "random 5-tuples": (acl, [random_header(rng) for _ in range(HEADERS)]),
        "shared uppers": (acl, shared[:HEADERS]),
    }


def median_ms(acl: Acl, headers: list[HeaderValue], repeat: int) -> float:
    samples = []
    gc.disable()
    try:
        for _ in range(repeat):
            table = FlowTable(acl)
            started = time.perf_counter()
            table.flow_ids(headers)
            samples.append(time.perf_counter() - started)
    finally:
        gc.enable()
    return statistics.median(samples) * 1e3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=30, help="compiles per trace (default 30)")
    args = parser.parse_args()
    print(f"{'trace':16s} {'headers':>7s} {'in runs':>7s} {'median_ms':>10s}")
    for name, (acl, headers) in traces().items():
        in_runs = sum(a.bits >> LAST == b.bits >> LAST for a, b in zip(headers, headers[1:]))
        print(f"{name:16s} {len(headers):7d} {in_runs:7d} {median_ms(acl, headers, args.repeat):10.2f}")


if __name__ == "__main__":
    main()
