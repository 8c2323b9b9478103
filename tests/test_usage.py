"""The command line's usage, help and error texts, byte for byte.

Each case is (argv, exit status, stdout, stderr) at ``COLUMNS=80``, as the
command gave them when every run built the parser of all eight subcommands.
A command now builds its own subcommand's parser alone, and the full one only
when the first argument names no subcommand; the texts must not change.  Two
of them tell a naive single-subcommand parser apart: its usage line would
list only that command (``energy ... extra``), and a metavar naming every
command would rename the argument in the full parser's errors (no command,
``bogus``).

README's library example is run too, so a name the library drops cannot stay
in the docs.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from stagecost import cli
from stagecost.cli import dispatch

# argv, exit status, stdout, stderr
CASES = [
    ([], 2,
     "",
     """\
usage: stagecost [-h]
                 {energy,compare,simulate,mapreduce,regress,pca,delays,plotdata}
                 ...
stagecost: error: the following arguments are required: command
"""),
    (["-h"], 0,
     """\
usage: stagecost [-h]
                 {energy,compare,simulate,mapreduce,regress,pca,delays,plotdata}
                 ...

Staging-energy modelling and desk-scale data analysis.

positional arguments:
  {energy,compare,simulate,mapreduce,regress,pca,delays,plotdata}
    energy              in-situ staging energy breakdown
    compare             in-situ vs offline energy and time
    simulate            queueing simulation of the staging tier
    mapreduce           keyed aggregation over CSV chunks
    regress             least-squares fit or summary from sums
    pca                 correlation factoring and schema grouping
    delays              summarise sending/receiving delay records
    plotdata            x/y series as TSV, optionally with a fit

options:
  -h, --help            show this help message and exit
""",
     ""),
    (["bogus"], 2,
     "",
     """\
usage: stagecost [-h]
                 {energy,compare,simulate,mapreduce,regress,pca,delays,plotdata}
                 ...
stagecost: error: argument command: invalid choice: 'bogus' (choose from 'energy', 'compare', 'simulate', 'mapreduce', 'regress', 'pca', 'delays', 'plotdata')
"""),
    (["energy", "-h"], 0,
     """\
usage: stagecost energy [-h] --config CONFIG --kernel KERNEL

options:
  -h, --help       show this help message and exit
  --config CONFIG
  --kernel KERNEL
""",
     ""),
    (["compare", "-h"], 0,
     """\
usage: stagecost compare [-h] --config CONFIG --kernel KERNEL

options:
  -h, --help       show this help message and exit
  --config CONFIG
  --kernel KERNEL
""",
     ""),
    (["simulate", "-h"], 0,
     """\
usage: stagecost simulate [-h] --config CONFIG --kernel KERNEL --tick TICK
                          [--trace TRACE]

options:
  -h, --help       show this help message and exit
  --config CONFIG
  --kernel KERNEL
  --tick TICK
  --trace TRACE    write the event log as TSV to this path
""",
     ""),
    (["mapreduce", "-h"], 0,
     """\
usage: stagecost mapreduce [-h] {run} ...

positional arguments:
  {run}
    run       run a built-in job

options:
  -h, --help  show this help message and exit
""",
     ""),
    (["regress", "-h"], 0,
     """\
usage: stagecost regress [-h] [--from-ss SS_REG SS_TOTAL N K] [--input INPUT]
                         [--dependent DEPENDENT]
                         [--independents INDEPENDENTS [INDEPENDENTS ...]]

options:
  -h, --help            show this help message and exit
  --from-ss SS_REG SS_TOTAL N K
  --input INPUT
  --dependent DEPENDENT
  --independents INDEPENDENTS [INDEPENDENTS ...]
""",
     ""),
    (["pca", "-h"], 0,
     """\
usage: stagecost pca [-h] --input INPUT [--threshold THRESHOLD]
                     [--cutoff CUTOFF]

options:
  -h, --help            show this help message and exit
  --input INPUT
  --threshold THRESHOLD
  --cutoff CUTOFF
""",
     ""),
    (["delays", "-h"], 0,
     """\
usage: stagecost delays [-h] [--input INPUT]

options:
  -h, --help     show this help message and exit
  --input INPUT  CSV of delay records (bundled sample by default)
""",
     ""),
    (["plotdata", "-h"], 0,
     """\
usage: stagecost plotdata [-h] --input INPUT --x X --y Y [--fit]
                          [--output OUTPUT]

options:
  -h, --help       show this help message and exit
  --input INPUT
  --x X
  --y Y
  --fit
  --output OUTPUT
""",
     ""),
    (["mapreduce"], 2,
     "",
     """\
usage: stagecost mapreduce [-h] {run} ...
stagecost mapreduce: error: the following arguments are required: action
"""),
    (["mapreduce", "run", "-h"], 0,
     """\
usage: stagecost mapreduce run [-h] --job {max,keycount} [--column COLUMN]
                               [--key KEY] --input INPUT [INPUT ...]
                               [--chunk-size CHUNK_SIZE]

options:
  -h, --help            show this help message and exit
  --job {max,keycount}
  --column COLUMN       numeric column (max) or counted column (keycount)
  --key KEY             grouping column for the keycount job
  --input INPUT [INPUT ...]
  --chunk-size CHUNK_SIZE
""",
     ""),
    (["energy", "--kernel", "K"], 2,
     "",
     """\
usage: stagecost energy [-h] --config CONFIG --kernel KERNEL
stagecost energy: error: the following arguments are required: --config
"""),
    (["compare", "--config", "C"], 2,
     "",
     """\
usage: stagecost compare [-h] --config CONFIG --kernel KERNEL
stagecost compare: error: the following arguments are required: --kernel
"""),
    (["simulate", "--config", "C", "--kernel", "K"], 2,
     "",
     """\
usage: stagecost simulate [-h] --config CONFIG --kernel KERNEL --tick TICK
                          [--trace TRACE]
stagecost simulate: error: the following arguments are required: --tick
"""),
    (["mapreduce", "run", "--job", "max"], 2,
     "",
     """\
usage: stagecost mapreduce run [-h] --job {max,keycount} [--column COLUMN]
                               [--key KEY] --input INPUT [INPUT ...]
                               [--chunk-size CHUNK_SIZE]
stagecost mapreduce run: error: the following arguments are required: --input
"""),
    (["pca"], 2,
     "",
     """\
usage: stagecost pca [-h] --input INPUT [--threshold THRESHOLD]
                     [--cutoff CUTOFF]
stagecost pca: error: the following arguments are required: --input
"""),
    (["plotdata", "--input", "T", "--x", "a"], 2,
     "",
     """\
usage: stagecost plotdata [-h] --input INPUT --x X --y Y [--fit]
                          [--output OUTPUT]
stagecost plotdata: error: the following arguments are required: --y
"""),
    (["simulate", "--config", "C", "--kernel", "K", "--tick", "x"], 2,
     "",
     """\
usage: stagecost simulate [-h] --config CONFIG --kernel KERNEL --tick TICK
                          [--trace TRACE]
stagecost simulate: error: argument --tick: invalid float value: 'x'
"""),
    (["mapreduce", "run", "--job", "max", "--input", "T", "--chunk-size", "x"], 2,
     "",
     """\
usage: stagecost mapreduce run [-h] --job {max,keycount} [--column COLUMN]
                               [--key KEY] --input INPUT [INPUT ...]
                               [--chunk-size CHUNK_SIZE]
stagecost mapreduce run: error: argument --chunk-size: invalid int value: 'x'
"""),
    (["mapreduce", "run", "--job", "bogus", "--input", "T"], 2,
     "",
     """\
usage: stagecost mapreduce run [-h] --job {max,keycount} [--column COLUMN]
                               [--key KEY] --input INPUT [INPUT ...]
                               [--chunk-size CHUNK_SIZE]
stagecost mapreduce run: error: argument --job: invalid choice: 'bogus' (choose from 'max', 'keycount')
"""),
    (["energy", "--config", "C", "--kernel", "K", "extra"], 2,
     "",
     """\
usage: stagecost [-h]
                 {energy,compare,simulate,mapreduce,regress,pca,delays,plotdata}
                 ...
stagecost: error: unrecognized arguments: extra
"""),
    (["regress", "--from-ss", "1", "2"], 2,
     "",
     """\
usage: stagecost regress [-h] [--from-ss SS_REG SS_TOTAL N K] [--input INPUT]
                         [--dependent DEPENDENT]
                         [--independents INDEPENDENTS [INDEPENDENTS ...]]
stagecost regress: error: argument --from-ss: expected 4 arguments
"""),
]


IDS = [" ".join(argv) or "no-arguments" for argv, *_ in CASES]


@pytest.mark.parametrize(("argv", "status", "out", "err"), CASES, ids=IDS)
def test_main_prints_the_recorded_text(argv, status, out, err):
    # a fresh interpreter through the process entry point, as the bench runs it
    env = {name: value for name, value in os.environ.items() if name != "LINES"}
    env.update(PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]), COLUMNS="80")
    done = subprocess.run([sys.executable, "-c", "from stagecost.cli import main; main()",
                           *argv], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (status, out, err)


@pytest.mark.parametrize(("argv", "status", "out", "err"), CASES, ids=IDS)
def test_dispatch_prints_the_recorded_text(capsys, monkeypatch, argv, status, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert dispatch(argv) == status
    assert capsys.readouterr() == (out, err)


def test_the_library_example_in_the_readme_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("\n## Library use\n")
    end = readme.find("\n## ", start + 1)
    blocks = list(re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)
                  .finditer(readme, start, end if end >= 0 else len(readme)))
    assert blocks
    for block in blocks:
        # padded so that a traceback names the block's line in README.md
        lines_before = readme.count("\n", 0, block.start(1))
        exec(compile("\n" * lines_before + block[1], "README.md", "exec"), {})
