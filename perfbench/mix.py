"""Seeded inputs of the three workloads.

Every generator here is a pure function of the workload seed, so the
same seed gives the same request mix and arrival schedule on every
commit.  Requests use the service's JSON submission vocabulary (app,
build ``sizes`` including the app's input ``seed``, ``board``,
``machine``), which the engine workloads parse with the same
``repro.serve.models.request_from_payload`` the service uses.
"""

from __future__ import annotations

import random
from typing import Any, Iterator

Payload = dict[str, Any]

# ----------------------------------------------------------------------
# sweep_cold: a design-space sweep on the event backend.
# ----------------------------------------------------------------------
#: Build sizes per app and how many images of each a round sweeps:
#: the paper default, and a small variant of the service soak's size.
#: Small MPEG, QRD and RTSL images cost ~15-45 ms per point, so a round
#: sweeps three input seeds of each and the median operation falls
#: inside that dense cost band; a small DEPTH image costs as much as a
#: default one on the event backend.
SWEEP_IMAGES: dict[str, tuple[tuple[dict[str, int], int], ...]] = {
    "depth": (({}, 1), ({"width": 48, "height": 32}, 1)),
    "mpeg": (({}, 1), ({"width": 64, "height": 32, "frames": 1}, 3)),
    "qrd": (({}, 1), ({"rows": 48, "cols": 12}, 3)),
    "rtsl": (({}, 1), ({"triangles": 60}, 3)),
}

#: Machine/board points every image is simulated under, in the order
#: the paper's tables and figures ask for them.  Table 3 and Fig. 11
#: share the hardware baseline, so the last point repeats the first.
SWEEP_POINTS: tuple[tuple[str, Payload], ...] = (
    ("table3.hardware", {"board": "hardware"}),
    ("table6.isim", {"board": "isim"}),
    ("fig14.host_1mips", {"board": {"mode": "hardware",
                                    "host_mips": 1.0}}),
    ("ablation.scoreboard8", {"machine": {"scoreboard_slots": 8}}),
    ("fig11.hardware", {"board": "hardware"}),
)


def _input_seed(rng: random.Random) -> int:
    return rng.randrange(1, 1 << 30)


def sweep_round(seed: int, index: int) -> list[Payload]:
    """Round ``index`` of the sweep: every image of ``SWEEP_IMAGES``
    with fresh input seeds, in seeded order, each under every point."""
    rng = random.Random(f"sweep:{seed}:{index}")
    images = [(app, dict(sizes, seed=_input_seed(rng)))
              for app in sorted(SWEEP_IMAGES)
              for sizes, count in SWEEP_IMAGES[app]
              for _ in range(count)]
    rng.shuffle(images)
    return [{"app": app, "sizes": sizes, **point}
            for app, sizes in images for _name, point in SWEEP_POINTS]


def sweep_kind(payload: Payload, number: int) -> tuple[str, str, str]:
    """What operation ``number`` of a round is, input seed aside: its
    app, build size and point.  Every round has one of each kind per
    image of ``SWEEP_IMAGES``."""
    sizes = sorted((key, value) for key, value in payload["sizes"].items()
                   if key != "seed")
    return (payload["app"], repr(sizes),
            SWEEP_POINTS[number % len(SWEEP_POINTS)][0])


# ----------------------------------------------------------------------
# fetch_warm: critpath/what-if over a warm cache.
# ----------------------------------------------------------------------
#: Input seeds per app in the warm set (default sizes).  DEPTH gets
#: more so the median operation falls inside one app's cost band
#: rather than on the edge between two.
FETCH_SEEDS_PER_APP = {"depth": 7, "mpeg": 3, "qrd": 3, "rtsl": 3}


def fetch_set(seed: int) -> list[Payload]:
    """The warm working set: default-size images, distinct inputs."""
    rng = random.Random(f"fetch:{seed}")
    payloads = []
    for app in sorted(FETCH_SEEDS_PER_APP):
        seeds: set[int] = set()
        while len(seeds) < FETCH_SEEDS_PER_APP[app]:
            seeds.add(_input_seed(rng))
        payloads.extend({"app": app, "sizes": {"seed": value}}
                        for value in sorted(seeds))
    return payloads


def fetch_ops(seed: int, count: int, size: int,
              resources: tuple[str, ...]) -> list[tuple[int, str]]:
    """``count`` operations as (index into the warm set, resource to
    scale 2x).  Each pass visits every entry once, in seeded order, so
    any prefix is close to the set's own composition."""
    rng = random.Random(f"fetch-ops:{seed}")
    ops: list[tuple[int, str]] = []
    while len(ops) < count:
        order = list(range(size))
        rng.shuffle(order)
        ops.extend((index, rng.choice(resources)) for index in order)
    return ops[:count]


# ----------------------------------------------------------------------
# serve_open: open-loop HTTP load.
# ----------------------------------------------------------------------
#: Small images: the hot set and the cold requests both draw from
#: these, so pre-warm stays cheap and a cold job costs ~10-60 ms.
SERVE_VARIANTS: tuple[Payload, ...] = (
    {"app": "depth", "sizes": {"width": 48, "height": 32}},
    {"app": "mpeg", "sizes": {"width": 64, "height": 32, "frames": 1}},
    {"app": "qrd", "sizes": {"rows": 48, "cols": 12}},
    {"app": "rtsl", "sizes": {"triangles": 60}},
)
HOT_SET_SIZE = 8
#: One request in every ``1 / COLD_SHARE`` is cold.
COLD_SHARE = 0.05
#: The nominal stage rate (the mix) and the ramp's rates (hot requests
#: only); README.md gives the capacities they were chosen against.
NOMINAL_RPS = 30.0
RAMP_RPS = (120.0, 240.0, 320.0, 400.0, 480.0)


def _serve_payload(rng: random.Random, variant: Payload) -> Payload:
    return {"app": variant["app"],
            "sizes": dict(variant["sizes"], seed=_input_seed(rng)),
            "deadline_s": 30.0}


def hot_set(seed: int) -> list[Payload]:
    rng = random.Random(f"hot:{seed}")
    return [_serve_payload(rng, SERVE_VARIANTS[i % len(SERVE_VARIANTS)])
            for i in range(HOT_SET_SIZE)]


def requests(seed: int, stage: int, hot: list[Payload]
             ) -> Iterator[tuple[str, Payload]]:
    """One stage's endless request stream: ``(kind, payload)``.  Each
    block of ``1 / COLD_SHARE`` requests holds one cold request (a new
    input seed) at a seeded position.  Hot requests visit the hot set,
    and cold ones the size variants, in seeded passes, so any stretch
    of the stream is close to the mix's own composition."""
    rng = random.Random(f"requests:{seed}:{stage}")
    block = round(1 / COLD_SHARE)
    hot_pass: list[Payload] = []
    cold_pass: list[Payload] = []
    while True:
        cold_at = rng.randrange(block)
        for position in range(block):
            if position == cold_at:
                if not cold_pass:
                    cold_pass = list(SERVE_VARIANTS)
                    rng.shuffle(cold_pass)
                yield "cold", _serve_payload(rng, cold_pass.pop())
                continue
            if not hot_pass:
                hot_pass = list(hot)
                rng.shuffle(hot_pass)
            yield "hot", hot_pass.pop()


def arrivals(seed: int, stage: int, rate: float, duration: float,
             stream: Iterator[tuple[str, Payload]]
             ) -> list[tuple[float, str, Payload]]:
    """One open-loop stage: ``(due offset s, kind, payload)``.  The
    count is fixed at ``rate * duration`` and the times are uniform
    order statistics (a Poisson process conditioned on its count); the
    requests are the head of ``stream``."""
    rng = random.Random(f"arrivals:{seed}:{stage}")
    count = max(1, round(rate * duration))
    dues = sorted(rng.uniform(0.0, duration) for _ in range(count))
    return [(due, kind, payload) for due, (kind, payload)
            in zip(dues, stream)]
