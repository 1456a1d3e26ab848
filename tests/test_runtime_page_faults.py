"""The pooled wave makes no per-wave page faults.

The grouped kernel's multi-MB temporaries are reused per thread
(``repro.sc.binomial.scratch_array``) instead of being allocated fresh
every wave. Fresh arrays that large are page-faulted in anew whenever
the allocator returns them to the OS between waves, which glibc does or
does not do depending on what was freed before: a steady pooled burst
made about 1,300 minor faults per wave in each process when nothing
earlier had raised glibc's thresholds.

The count runs in a fresh interpreter, so the allocator state is the
one a new serving process starts from, not whatever the test session
left behind.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Waves run before counting (first-touch faults belong to set-up).
WARMUP_WAVES = 20
#: Waves counted.
WAVES = 50
#: Minor faults per wave each process may make.
MAX_FAULTS_PER_WAVE = 50

_SCRIPT = f"""
import json, multiprocessing, resource
import numpy as np
from repro.api import Engine
from repro.hardware.accelerator import TiledLinearLayer
from repro.hardware.config import HardwareConfig
from repro.mapping.compiler import CompiledNetwork, HeadStage, LinearStage, SignStage
from repro.runtime.scheduler import ShardParallelScheduler

def minflt(pid):
    with open(f"/proc/{{pid}}/stat") as f:
        return int(f.read().rsplit(")", 1)[1].split()[7])

# The standard burst: 256 x 288 inputs, one 288 -> 144 layer (Cs = 36,
# L = 8), 32-row shards.
rng = np.random.default_rng(0)
pm = lambda shape: np.where(rng.random(shape) < 0.5, 1.0, -1.0)
cfg = HardwareConfig(crossbar_size=36, window_bits=8)
layer = TiledLinearLayer(cfg, pm((288, 144)), seed=0)
head = HeadStage(weight=pm((10, 144)), alpha=np.ones(10), gamma=np.ones(10),
                 beta=np.zeros(10), mean=np.zeros(10), var=np.ones(10), eps=1e-5)
engine = Engine(CompiledNetwork([SignStage(), LinearStage(layer=layer), head], cfg),
                micro_batch=32)
bursts = [pm((256, 288)) for _ in range(4)]
with ShardParallelScheduler(workers=2) as scheduler:
    scheduler.warm(engine.network)
    workers = [child.pid for child in multiprocessing.active_children()]
    with engine.session(seed=5, scheduler=scheduler) as session:
        for i in range({WARMUP_WAVES}):
            session.run(bursts[i % 4])
        caller = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        worker = [minflt(pid) for pid in workers]
        for i in range({WAVES}):
            session.run(bursts[i % 4])
        caller = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - caller
        worker = [minflt(pid) - w for pid, w in zip(workers, worker)]
print(json.dumps({{"workers": len(workers), "caller": caller, "worker": worker}}))
"""


@pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/stat"),
    reason="worker fault counts are read from /proc",
)
def test_pooled_burst_makes_no_per_wave_page_faults():
    env = dict(os.environ)
    env.pop("REPRO_MAX_POOL_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    assert counts["workers"] == 1
    per_wave = {
        "caller": counts["caller"] / WAVES,
        "worker": counts["worker"][0] / WAVES,
    }
    for process, faults in per_wave.items():
        assert faults < MAX_FAULTS_PER_WAVE, per_wave
