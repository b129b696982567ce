"""Set-up probe: a fresh interpreter imports spectrunc and parses argv and configs.

    python3 perfbench/setup_probe.py CONFIG...

This is the work a ``spectrunc run`` user pays on every call before any
computation: interpreter start, ``import spectrunc.cli``, building and
running the argument parser, and reading the config file.
"""

import sys

import spectrunc.cli as cli
import spectrunc.io as sio

if __name__ == "__main__":
    if cli.main(["--version"]) != 0:
        sys.exit(1)
    for path in sys.argv[1:]:
        sio.read_config(path)
