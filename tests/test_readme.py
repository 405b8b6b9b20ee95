"""The README's library example runs and prints what it says it prints,
its CLI example parses to the config it spells out, and its Layout block
names every module of the package."""

import re
import shlex
from pathlib import Path

from rlcgrand import simcli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_library_example_runs(capsys):
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, str(README), "exec"), {})
    expected = [line[4:] for line in block.splitlines() if line.startswith("#   ")]
    assert expected
    assert capsys.readouterr().out.splitlines() == expected


def test_cli_example_parses_to_the_config_it_names():
    [block] = re.findall(r"## CLI\n\n```\n(rlcgrand-sim .*?)```", README.read_text(), re.S)
    program, *argv = shlex.split(block.replace("\\\n", " "))
    assert program == "rlcgrand-sim"
    assert simcli.config_from_args(argv) == simcli.SimConfig(
        k=10,
        n_list=tuple(range(10, 21)),
        b=64,
        eps=0.05,
        burst_len=4.0,
        decoders=("rlc", "sd", "tgrand"),
        trials=10000,
        master_seed=1,
        query_cap=1048576,
        out_path="results.csv",
        workers=2,
    )


def test_layout_names_every_module():
    [layout] = re.findall(r"## Layout\n\n```\n(.*?)```", README.read_text(), re.S)
    rows = re.findall(r"^  (\S+\.py) ", layout, re.M)
    modules = sorted(p.name for p in (ROOT / "src" / "rlcgrand").glob("*.py"))
    assert sorted(rows) == modules


def test_pass_size_is_the_drivers_budget():
    [figure] = re.findall(r"at most (\d+) channel bits", README.read_text())
    assert int(figure) == simcli._BATCH_BITS
