"""Cancel and forced-fault requeue drills over a live job server.

Two targeted drills over the HTTP API of an in-process ``JobServer``
with one queue worker:

* a queued job is cancelled and must report ``cancelled``;
* a job carrying the ``serve.worker_exit@2`` fault spec hard-kills its
  worker at the 2nd completed stage of every attempt.  Each attempt
  checkpoints one stage further, so the job must reach ``done`` within
  its ``max_retries``, with a ``worker_lost`` requeue and a non-empty
  ``resumed_stages`` list.

Run from the repository root (the server state goes to ``serve_drill/``)::

    PYTHONPATH=src python benchmarks/serve_drills.py

Queue workers start with ``spawn``, which re-imports this file in each
worker process: the drills must stay under the ``__main__`` guard (a
script piped in on stdin cannot be re-imported, and its workers die at
start).  A failed drill raises ``AssertionError`` (exit code 1).
"""

from repro.serve import JobServer, ServeClient, ServeSettings


def main() -> None:
    settings = ServeSettings(
        workers=1, poll_interval=0.05,
        heartbeat_interval=0.2, monitor_interval=0.2,
    )
    with JobServer("serve_drill", settings=settings) as server:
        client = ServeClient(server.url, timeout=60.0)
        faulted = client.submit(
            {"spec": {"name": "drill", "num_cells": 120, "seed": 3}},
            options={
                "route": False,
                "config": {"gp.max_outer_iterations": 5},
                "faults": "serve.worker_exit@2",
            },
            max_retries=3,
        )
        doomed = client.submit(
            {"spec": {"name": "doomed", "num_cells": 120, "seed": 4}},
        )
        cancelled = client.cancel(doomed["job_id"])
        assert cancelled["state"] == "cancelled", cancelled["state"]
        final = client.wait(faulted["job_id"], timeout=300)
        assert final["state"] == "done", final["state"]
        assert final["attempts"] > 1, final["attempts"]
        assert any(
            e["reason"] == "worker_lost" for e in final["requeues"]
        ), final["requeues"]
        assert final["result"]["resumed_stages"], \
            "faulted job never resumed from its checkpoint"
        print(
            "drills ok:", final["attempts"], "attempts,",
            len(final["requeues"]), "requeues, resumed",
            final["result"]["resumed_stages"],
        )


if __name__ == "__main__":
    main()
