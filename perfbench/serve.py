"""Launch ``repro serve`` in this process, optionally traced.

    python -u perfbench/serve.py [--trace-out PATH] -- <repro serve args>

Without ``--trace-out`` this is exactly ``python -m repro.cli serve``.
With it, spans go around the kernel, plan, scheduler and codec layers,
every ``ServingDaemon.try_submit`` records its request's ``progress``
stages, and when the server stops (SIGINT) the span table, the stage
records and the daemon, router and server ``*Stats`` snapshots are
written to PATH as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


class _Recorder:
    """Per-request progress stamps and the serving objects to snapshot."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.requests = []
        self.lock = threading.Lock()
        self.daemons, self.routers, self.servers = [], [], []

    def install(self) -> None:
        from repro.net.router import DaemonRouter
        from repro.net.server import NetworkServer
        from repro.runtime.daemon import ServingDaemon

        for cls, found in (
            (ServingDaemon, self.daemons),
            (DaemonRouter, self.routers),
            (NetworkServer, self.servers),
        ):
            self._capture(cls, found)
        submit = ServingDaemon.try_submit
        recorder = self

        def try_submit(daemon, images, labels=None, *, seed=None, progress=None):
            stamps = {"seed": seed}

            def hook(stage, detail):
                stamps[stage] = time.perf_counter()
                if progress is not None:
                    progress(stage, detail)

            future = submit(daemon, images, labels, seed=seed, progress=hook)
            future.add_done_callback(
                lambda _f: stamps.__setitem__("done", time.perf_counter())
            )
            with recorder.lock:
                recorder.requests.append(stamps)
            return future

        self.tracer.replace(ServingDaemon, "try_submit", try_submit)

    def _capture(self, cls, found) -> None:
        init = cls.__init__

        def capturing_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            found.append(obj)

        self.tracer.replace(cls, "__init__", capturing_init)

    def dump(self, path: Path) -> None:
        import metrics

        payload = {
            "spans": metrics.self_times(self.tracer.spans()),
            "requests": self.requests,
            "daemons": [d.stats.as_dict() for d in self.daemons],
            "routers": [r.stats.as_dict() for r in self.routers],
            "servers": [s.stats.as_dict() for s in self.servers],
        }
        path.write_text(json.dumps(payload, default=str))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro import cli

    recorder = None
    if args.trace_out:
        from spans import Tracer, install_codec, install_kernel_layers

        tracer = Tracer()
        install_kernel_layers(tracer)
        install_codec(tracer, "server")
        recorder = _Recorder(tracer)
        recorder.install()
    code = cli.main(["serve", *serve_args])
    if recorder is not None:
        recorder.dump(Path(args.trace_out))
    return code


if __name__ == "__main__":
    sys.exit(main())
