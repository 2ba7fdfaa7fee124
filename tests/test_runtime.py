"""The command-line contract: exit codes, one error line, and numpy as the only runtime dependency.

Each command of the table runs in process on the packaged cluster. A
success writes nothing to stderr and a failure exactly one ``error: `` line;
the suite's ``filterwarnings = error`` fails a case on any warning, numpy's
overflow warnings included. A child interpreter then runs each of the seven
commands on the package this process imported and reports the modules it
loaded: none may be scipy's, which the test suite itself imports.
"""

import json

import pytest

from conftest import run_python

import robust_lexrank
from robust_lexrank import cli

# per-column budget files: one value per packaged sentence, none, too few,
# and eleven values one of which is not finite
BUDGET_FILES = {
    "eps_col_11.csv": "0.01\n" * 11,
    "eps_col_empty.csv": "",
    "eps_col_2.csv": "0.01\n0.01\n",
    "eps_col_nan.csv": "0.01\n" * 5 + "nan\n" + "0.01\n" * 5,
    "eps_col_inf.csv": "0.01\n" * 10 + "inf\n",
}
FROM_FILE = "robust --threshold 0.1 --eps1 0.01 --eps-col-file "

# command -> exit code, run in a directory that holds BUDGET_FILES
COMMANDS = [
    ("similarity", 0),
    ("rank --threshold 0.2", 0),
    ("robust --threshold 0.1 --eps1 0.01 --eps-col 0.01", 0),
    ("comparative --threshold 0.1 --n-verified 6 --eps1 0.01 --eps-col 0.01", 0),
    # every sentence verified: no generated support row, the verified block's
    # one support row alone
    ("comparative --threshold 0.1 --n-verified 11 --eps1 0.01 --eps-col 0.01", 0),
    ("simulate --threshold 0.2 --samples 100 --growth 2", 0),
    # the fixed-size sampler
    ("simulate --threshold 0.2 --samples 100 --growth 0", 0),
    ("reproduce-tables", 0),
    ("reproduce-tables --format csv", 0),
    ("verify --instances 10", 0),
    ("robust --threshold 0.1 --eps1 nan", 5),
    (FROM_FILE + "eps_col_11.csv", 0),
    (FROM_FILE + "eps_col_empty.csv", 4),
    (FROM_FILE + "eps_col_2.csv", 5),
    (FROM_FILE + "eps_col_nan.csv", 5),
    (FROM_FILE + "eps_col_inf.csv", 5),
    ("robust --threshold 0.1 --eps1 0.01 --eps-col -0.01", 5),
    # budgets at the top of the float range: the sampler's scale-down, the
    # verified caps' sum, and the existing and new-row budgets added
    ("simulate --threshold 0.2 --growth 0 --eps-xi 1e308 --eps-xi-col 1e308"
     " --eps-psi 0 --eps-psi-col 0", 0),
    ("comparative --threshold 0.1 --n-verified 4 --eps1 0 --eps-col 1e308", 0),
    # a total far above the caps' sum, priced at that sum
    ("robust --threshold 0.1 --eps1 1e308 --eps-col 0", 0),
    ("robust --threshold 0.1 --eps1 1e308 --eps-col 1", 0),
    # clamping leaves the costs at 1e308: the simplex prices them scaled down
    ("robust --threshold 0.1 --eps1 1e308 --eps-col 1e308", 0),
    ("simulate --threshold 0.2 --growth 1 --samples 10 --eps-xi 1e308 --eps-xi-col 1e308"
     " --eps-psi 1e308 --eps-psi-col 1e308", 5),
]
# the one error line of each budget-range failure, whichever size its check takes
MESSAGES = {
    FROM_FILE + "eps_col_nan.csv": "error: per-coordinate caps must be finite",
    FROM_FILE + "eps_col_inf.csv": "error: per-coordinate caps must be finite",
    "robust --threshold 0.1 --eps1 0.01 --eps-col -0.01":
        "error: per-coordinate caps must be finite and nonnegative",
}


@pytest.mark.parametrize("command, code", COMMANDS)
def test_exit_code_and_stderr(command, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in BUDGET_FILES.items():
        (tmp_path / name).write_text(text)
    assert cli.main(command.split()) == code
    lines = capsys.readouterr().err.splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("error: ")
    if command in MESSAGES:
        assert lines == [MESSAGES[command]]


CHILD = """
import contextlib, io, json, sys
import robust_lexrank
from robust_lexrank import cli

for command in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(command.split())
    if code != 0:
        sys.exit(f"{command} exited {code}")
print(json.dumps({
    "package": robust_lexrank.__file__,
    "scipy": sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"),
}))
"""


def test_seven_commands_run_without_scipy(tmp_path):
    one_each = {}
    for command, code in COMMANDS:
        if code == 0:
            one_each.setdefault(command.split()[0], command)
    assert len(one_each) == 7
    child = run_python("-c", CHILD, *one_each.values(), cwd=tmp_path)
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""
    report = json.loads(child.stdout)
    assert report["package"] == robust_lexrank.__file__
    assert report["scipy"] == []
