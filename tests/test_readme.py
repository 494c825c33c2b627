"""README's library example and CLI lines run as written, and its constants match the code."""

import json
import math
import re
import shlex
from pathlib import Path

from entsup import linops, qstate, quantifiers, sdpcore, supbound, witnesses
from entsup.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)


def test_readme_python_blocks_run():
    blocks = _blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    # The CLI lines read state.json: README's sparse 3-qubit example.
    (state,) = [doc for doc in map(json.loads, _blocks("json")) if doc["dims"] == [2, 2, 2]]
    (tmp_path / "state.json").write_text(json.dumps(state))
    monkeypatch.chdir(tmp_path)
    lines = [
        line for block in _blocks("sh") for line in block.splitlines()
        if line.startswith("entsup ")
    ]
    assert lines
    for line in lines:
        assert main(shlex.split(line)[1:]) == EXIT_OK, line
        capsys.readouterr()


def _sci(x):
    mantissa, exponent = f"{x:g}".split("e")
    return f"{mantissa}e{int(exponent)}"


def _grouped(n):
    return f"{n:,}".replace(",", " ")


def _power(base, n):
    exponent = round(math.log(n, base))
    return f"{base}^{exponent}" if base**exponent == n else str(n)


def test_readme_quotes_the_constants_it_names():
    # Each phrase quotes a constant's value next to its name, so changing the
    # constant without README fails here. Whitespace is collapsed on both sides.
    phrases = [
        f"({sdpcore.MAX_DIMENSION}, `sdpcore.MAX_DIMENSION`)",
        f"`sdpcore.MAX_ITERATIONS` ({_grouped(sdpcore.MAX_ITERATIONS)}) iterations",
        f"(`sdpcore.CHECK_EVERY` = {sdpcore.CHECK_EVERY})",
        f"over the last {sdpcore.ANDERSON_MEMORY} passes",
        f"(`ROUNDING_TOL = {_sci(quantifiers.ROUNDING_TOL)}`",
        f"`s_1 s_2 <= {_sci(linops.PSD_TOL)}` (`linops.PSD_TOL`)",
        f"`s_i s_j > {_sci(linops.PSD_TOL)}` (`linops.PSD_TOL`",
        f"`|<psi|psi> - 1| <= {_sci(linops.DENSITY_TOL)}` (`linops.DENSITY_TOL`)",
        f"`quantifiers.DIAGONAL_TOL` ({_sci(quantifiers.DIAGONAL_TOL)})",
        f"more than {_power(10, supbound.MAX_SWEEP_ROWS)} rows (`supbound.MAX_SWEEP_ROWS`)",
        f"at most {_power(2, supbound.SWEEP_BLOCK_AMPLITUDES)} amplitudes per stacked branch"
        " (`supbound.SWEEP_BLOCK_AMPLITUDES`)",
        f"at most {_power(2, qstate.MAX_REGISTER_SIZE)} amplitudes"
        f" ({round(math.log2(qstate.MAX_REGISTER_SIZE))} qubits, `qstate.MAX_REGISTER_SIZE`)",
        f"after {witnesses.SEESAW_MAX_ITERATIONS} sweeps or once a sweep gains at most"
        f" {_sci(witnesses.SEESAW_CONVERGENCE_TOL)} (`witnesses.SEESAW_MAX_ITERATIONS`,"
        " `SEESAW_CONVERGENCE_TOL`)",
    ]
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert [phrase for phrase in phrases if phrase not in text] == []


def test_readme_names_every_robustness_report_key():
    # Every key that RobustnessBounds.report() writes, after a certified SDP, a
    # solver stop, the dimension refusal and a closed bracket, is named in README's
    # paragraph on the quantify robustness block. Whitespace is collapsed there.
    (paragraph,) = [
        " ".join(block.split())
        for block in README.read_text(encoding="utf-8").split("\n\n")
        if block.startswith("The `quantify` robustness report")
    ]
    outcomes = [
        quantifiers.RobustnessBounds(1.0, 1.0, [0], "l1-local", ppt_sdp=1.0),
        quantifiers.RobustnessBounds(1.0, 1.0, ppt_sdp_best=0.99, ppt_sdp_error="stopped"),
        quantifiers.RobustnessBounds(1.0, 1.0, ppt_sdp_error="refused"),
        quantifiers.RobustnessBounds(1.0, 1.0, [0], "l1-local", ppt_sdp=1.0, exact=True),
    ]
    keys = {key for bounds in outcomes for key in bounds.report()}
    assert sorted(key for key in keys if f"`{key}`" not in paragraph) == []
