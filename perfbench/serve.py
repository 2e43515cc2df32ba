"""Run ``slang serve`` (default settings, a free port) for ``http-mix``.

    python3 perfbench/serve.py [--trace]

``--trace`` wraps every layer's public functions (:mod:`layers`); on
``SIGUSR1`` the span totals are zeroed and ``reset`` is printed, and when
the server exits after ``SIGTERM`` the totals are printed as one JSON
line on standard output.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import signal
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    # The runner sends SIGUSR2 before killing a run that ran out of time.
    faulthandler.register(signal.SIGUSR2, all_threads=True)
    recorder = None
    if args.trace:
        from layers import Recorder, install

        recorder = Recorder()
        install(recorder)

        def on_reset(signum, frame) -> None:
            recorder.reset()
            print("reset", flush=True)

        signal.signal(signal.SIGUSR1, on_reset)
    from repro.cli import main as slang

    code = slang(["serve", "--port", "0"])
    if recorder is not None:
        print(json.dumps(recorder.totals()), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
