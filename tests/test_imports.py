"""What `import djkm` loads: numpy only with djkm.ortho, and djkm.ortho only
for the commands that run it.  Each test starts a fresh interpreter, since
this process has long since imported both."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import djkm

LOADED = "[m for m in ('numpy', 'djkm.ortho') if m in sys.modules]"


def fresh(script: str, *args: str) -> str:
    """Stdout of script run with args in a new interpreter that imports djkm
    from here."""
    env = {**os.environ, "PYTHONPATH": str(Path(djkm.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(*commands) -> dict:
    """{step: the lazy modules loaded after it} for import, then each command."""
    script = (
        "import json, os, sys\n"
        "import djkm, djkm.cli\n"
        f"seen = {{'import': {LOADED}}}\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    code = djkm.cli.main(argv + ['--out', os.devnull])\n"
        "    if code:\n"
        "        sys.exit(f'{argv[0]} exited {code}')\n"
        f"    seen[argv[0]] = {LOADED}\n"
        "print(json.dumps(seen))\n"
    )
    return json.loads(fresh(script, json.dumps(commands)))


def test_stdlib_commands_never_load_numpy():
    seen = loaded_after(
        ["gen", "--family", "P-4", "--max-n", "6"],
        ["verify-ode", "--family", "P-1", "--max-n", "6"],
        ["oracle-compare", "--family", "P-4", "--order", "6"],
        ["cocycle", "--verify", "--bound", "2"],
    )
    assert seen == dict.fromkeys(
        ["import", "gen", "verify-ode", "oracle-compare", "cocycle"], []
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["orthogonality", "--family", "q", "--hankel", "4", "--gram", "3"],
        ["quadrature", "--family", "qbar", "--nodes", "5"],
        ["nonclassical", "--family", "q", "--max-n", "4"],
        ["all", "--profile", "quick"],
    ],
    ids=lambda argv: argv[0],
)
def test_ortho_commands_load_it(argv):
    assert loaded_after(argv) == {"import": [], argv[0]: ["numpy", "djkm.ortho"]}


@pytest.mark.parametrize("module", ["djkm", "djkm.battery", "djkm.cli"])
def test_import_loads_neither(module):
    assert fresh(f"import sys, {module}\nprint({LOADED})\n") == "[]\n"


@pytest.mark.parametrize("module", ["djkm", "djkm.battery", "djkm.cli", "djkm.ortho"])
def test_import_loads_no_record_machinery(module):
    # dataclasses, and the inspect, ast and dis it loads, took ~10 ms of each
    # start; numpy itself loads inspect, so djkm.ortho is held to dataclasses
    unwanted = {"dataclasses"} if module == "djkm.ortho" else {"dataclasses", "inspect"}
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"import {module}\n"
        f"print(sorted({unwanted!r} & (set(sys.modules) - before)))\n"
    )
    assert fresh(script) == "[]\n"


def test_the_cli_loads_no_process_machinery():
    # battery.run imports pickle where it forks; multiprocessing is never used
    loaded = "[m for m in ('pickle', 'multiprocessing') if m in sys.modules]"
    assert fresh(f"import sys, djkm.cli\nprint({loaded})\n") == "[]\n"


def test_the_forked_rows_of_all_load_neither():
    # the child never calls numpy, so forking after numpy's threads start is safe
    script = (
        "import sys\n"
        "from djkm import battery\n"
        "for name, check, args in battery.ROWS:\n"
        "    if name in battery.CHILD_ROWS:\n"
        "        battery.item(name, check, *args[0])\n"
        f"print({LOADED})\n"
    )
    assert fresh(script) == "[]\n"


def test_assoc_ultraspherical_loads_neither():
    script = (
        "import sys, djkm\n"
        "from fractions import Fraction as F\n"
        "q = djkm.assoc_ultraspherical(F(-1, 2), F(3, 2), 4)[4]\n"
        f"print(q == djkm.get_family('P-4').q(4), {LOADED})\n"
    )
    assert fresh(script) == "True []\n"


def test_ortho_names_resolve_to_the_module():
    script = (
        "import sys, djkm\n"
        "assert djkm.golub_welsch is djkm.ortho.golub_welsch\n"
        "assert djkm.ThreeTermData is sys.modules['djkm.ortho'].ThreeTermData\n"
        "print('ok')\n"
    )
    assert fresh(script) == "ok\n"


def test_star_import_binds_all():
    script = (
        "from djkm import *\n"
        "import djkm\n"
        "print(sorted(name for name in djkm.__all__ if name not in globals()))\n"
    )
    assert fresh(script) == "[]\n"


def test_unknown_name_is_an_attribute_error():
    script = (
        "import sys, djkm\n"
        "try:\n"
        "    djkm.no_such_name\n"
        "except AttributeError as exc:\n"
        f"    print(exc, {LOADED})\n"
    )
    assert fresh(script) == "module 'djkm' has no attribute 'no_such_name' []\n"
