"""Traced CLI entry: install the span wrappers, run ``rotstar.cli.main`` on the
remaining arguments, and write the span records.

    python3 bench/traced_cli.py --spans FILE --config CFG --out DIR [...]
"""

from __future__ import annotations

import argparse

import spans


def main() -> int:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--spans", required=True)
    own, rest = parser.parse_known_args()
    recorder = spans.install()
    import rotstar.cli

    try:
        return rotstar.cli.main(rest)
    finally:
        recorder.dump(own.spans)


if __name__ == "__main__":
    raise SystemExit(main())
