"""Run pytest with the decoder kernel built for AddressSanitizer and
UndefinedBehaviorSanitizer.

    PYTHONPATH=src python tests/sanitized.py [pytest arguments]

An out-of-bounds access or undefined behaviour in _beam.c aborts the run,
though the kernel's outputs might still match the Python search. The
script finds the C compiler's libasan.so and libubsan.so with
`cc -print-file-name`, and re-executes itself with both in LD_PRELOAD,
ASAN_OPTIONS=detect_leaks=0 and PYTHONMALLOC=malloc unless they are
already set: Python then allocates with plain malloc, so the buffers the
kernel reads carry the sanitizer's guards. It swaps the sanitized build
in as translator._kernel and runs pytest.main on its arguments, so it
exits with pytest's code. Forked children inherit the sanitized kernel;
processes a test starts build their own.

It exits with MISSING (77), naming what is missing on stderr, when there
is no `cc` on PATH or the compiler lacks either runtime.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

MISSING = 77
# the rounding flag stays, so the kernel must still match the Python search bit for bit
SANITIZED_FLAGS = ("-O1", "-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
                   "-fno-sanitize-recover=all", "-ffp-contract=off", "-fPIC", "-shared")


def _runtimes() -> list[str]:
    """The paths of the compiler's ASan and UBSan runtimes; exits MISSING without them."""
    cc = shutil.which("cc")
    if cc is None:
        sys.exit(_missing("no C compiler 'cc' on PATH"))
    found = []
    for name in ("libasan.so", "libubsan.so"):
        path = subprocess.run([cc, f"-print-file-name={name}"], capture_output=True,
                              text=True).stdout.strip()
        if not Path(path).is_absolute():  # the compiler echoes a name it cannot find
            sys.exit(_missing(f"{cc} has no {name} runtime"))
        found.append(path)
    return found


def _missing(what: str) -> int:
    print(f"sanitized.py: {what}", file=sys.stderr)
    return MISSING


def main(argv: list[str]) -> int:
    wanted = {"LD_PRELOAD": " ".join(_runtimes()), "ASAN_OPTIONS": "detect_leaks=0",
              "PYTHONMALLOC": "malloc"}
    if any(os.environ.get(key) != value for key, value in wanted.items()):
        os.execve(sys.executable, [sys.executable, __file__, *argv], {**os.environ, **wanted})

    import pytest

    from retransim import translator

    translator._kernel = translator._load_kernel(SANITIZED_FLAGS)
    if translator._kernel is None:
        print("sanitized.py: the sanitized kernel did not build or load", file=sys.stderr)
        return 1
    return pytest.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
