from fractions import Fraction as F
from pathlib import Path

import pytest

from diskdispersal.cli import dispatch
from diskdispersal.instance_io import (
    parse_instance,
    parse_witness,
    write_instance,
)
from diskdispersal.render import RenderOptions, render_svg
from diskdispersal.gridtiling import gen_gridtiling, parse_gridtiling
from diskdispersal.geometry import Point
from diskdispersal.instance_io import Instance, LatticeBlock, Witness
from diskdispersal.solver import solve


def P(x, y):
    return Point(F(x), F(y))


FIG1_TEXT = """DISKDISPERSAL v1
variant: euclidean
k: 1
d2: 3
disks: 3
0 0
1 0
2 0
"""

GT_TEXT = "2 1\n1 1: 1,2 2,1\n"

TOUCHING_TEXT = """DISKDISPERSAL v1
variant: euclidean
k: 1
d2: 1
disks: 2
0+2/5*sqrt(2) 0+4/5*sqrt(2)
0-4/5*sqrt(3) 0+2/5*sqrt(3)
"""


@pytest.fixture
def fig1(tmp_path):
    p = tmp_path / "fig1.inst"
    p.write_text(FIG1_TEXT)
    return p


class TestSolveChain:
    def test_solve_validate_render(self, fig1, tmp_path, capsys):
        w = tmp_path / "w.out"
        assert dispatch(["solve", str(fig1), "--witness", str(w)]) == 0
        assert w.exists()
        assert dispatch(["validate", str(fig1), str(w)]) == 0
        svg = tmp_path / "out.svg"
        assert dispatch(["render", str(fig1), str(svg),
                         "--witness", str(w)]) == 0
        body = svg.read_text()
        assert body.count("<circle") == 4  # 3 disks + 1 moved target
        assert body.count("marker-end") == 1

    def test_no_instance_exit_one(self, tmp_path):
        p = tmp_path / "no.inst"
        p.write_text(FIG1_TEXT.replace("d2: 3", "d2: 1/4"))
        assert dispatch(["solve", str(p)]) == 1

    def test_oracle_flag(self, tmp_path):
        p = tmp_path / "no.inst"
        p.write_text(FIG1_TEXT.replace("d2: 3", "d2: 1/4"))
        assert dispatch(["solve", str(p), "--oracle"]) == 1

    def test_time_budget_takes_a_rational(self, fig1):
        assert dispatch(["solve", str(fig1), "--time-budget", "5/2"]) == 0

    @pytest.mark.parametrize("index", [3, 5])
    def test_render_witness_index_out_of_range(self, fig1, tmp_path, capsys,
                                               index):
        # as validate does, render refuses a move of a disk the instance
        # does not have
        w = tmp_path / "w.out"
        w.write_text(f"DISPERSALMOVES v1\nmoves: 1\n{index} -> 1 2\n")
        svg = tmp_path / "out.svg"
        assert dispatch(["render", str(fig1), str(svg),
                         "--witness", str(w)]) == 2
        assert capsys.readouterr().err == (
            f"error: witness index {index} out of range\n")
        assert not svg.exists()
        assert dispatch(["validate", str(fig1), str(w)]) == 2

    BIG = 10 ** 400  # no float holds it

    @pytest.mark.parametrize("inst_text, moves", [
        (FIG1_TEXT.replace("2 0", f"{BIG} 0"), "0\n"),
        (FIG1_TEXT, f"1\n1 -> {BIG} 0\n"),
    ])
    def test_render_coordinate_beyond_float_range(self, tmp_path, capsys,
                                                  inst_text, moves):
        # a disk's centre or a move's target
        p = tmp_path / "big.inst"
        p.write_text(inst_text)
        w = tmp_path / "w.out"
        w.write_text(f"DISPERSALMOVES v1\nmoves: {moves}")
        svg = tmp_path / "out.svg"
        assert dispatch(["render", str(p), str(svg),
                         "--witness", str(w)]) == 2
        assert capsys.readouterr().err == (
            "error: a scale or coordinate beyond float range\n")
        assert not svg.exists()

    @pytest.mark.parametrize("flag, value", [("--time-budget", "1")])
    def test_oracle_rejects_solver_flags(self, fig1, capsys, flag, value):
        # the oracle takes no budget; silently ignoring it would misreport
        # what ran
        assert dispatch(["solve", str(fig1), "--oracle", flag, value]) == 64
        err = capsys.readouterr().err
        assert "--time-budget" in err

    def test_reject_exit_one(self, fig1, tmp_path):
        w = tmp_path / "w.bad"
        w.write_text("DISPERSALMOVES v1\nmoves: 0\n")
        assert dispatch(["validate", str(fig1), str(w)]) == 1

    def test_tolerant_flag(self, fig1, tmp_path):
        w = tmp_path / "w.approx"
        w.write_text("DISPERSALMOVES v1\nmoves: 1\n1 -> 1 1.7320508~\n")
        assert dispatch(["validate", str(fig1), str(w)]) == 2
        # the default eps of 1/10^9 is tighter than a 7-digit literal's
        # uncertainty, so it stays indeterminate; a wider eps accepts
        assert dispatch(["validate", str(fig1), str(w), "--tolerant"]) == 2
        assert dispatch(["validate", str(fig1), str(w),
                         "--tolerant", "1/1000000"]) == 0

    def test_default_delta_agrees_with_library(self, tmp_path):
        # unknown at delta 1/16; the library's default 1/64 proves no
        p = tmp_path / "no.inst"
        p.write_text("DISKDISPERSAL v1\nvariant: euclidean\nk: 3\nd2: 1\n"
                     "disks: 6\n7 9/2\n1 3/4\n7/2 11/2\n13/4 6\n25/4 3\n"
                     "21/4 9/4\n")
        assert solve(parse_instance(p.read_text())).verdict == "no"
        assert dispatch(["solve", str(p)]) == 1

    def test_parse_error_exit_two(self, tmp_path):
        p = tmp_path / "bad.inst"
        p.write_text("DISKDISPERSAL v1\nvariant: euclidean\nk: -1\n")
        assert dispatch(["solve", str(p)]) == 2

    def test_undecidable_overlap_answers_unknown(self, tmp_path, capsys):
        p = tmp_path / "raw.inst"
        p.write_text("DISKDISPERSAL v1\nvariant: euclidean\nk: 1\nd2: 1\n"
                     "disks: 3\n0 0\n2.0~ 0\n10 10\n")
        assert dispatch(["solve", str(p)]) == 2
        out = capsys.readouterr()
        assert out.out.startswith("unknown (distance of (0, 0) and (2.0~, 0))")
        assert "error:" not in out.err

    def test_touching_radical_pair_is_a_packing(self, tmp_path, capsys):
        # the centers are exactly 2 apart over two different radicands
        p = tmp_path / "touch.inst"
        p.write_text(TOUCHING_TEXT)
        assert dispatch(["solve", str(p)]) == 0
        assert capsys.readouterr().out.startswith("yes (0 moves)")
        assert dispatch(["graph", str(p)]) == 0
        assert capsys.readouterr().out == "vertices: 2\n"

    def test_block_expansion_cap_is_usage_error(self, tmp_path, monkeypatch,
                                                capsys):
        from diskdispersal import cli
        p = tmp_path / "block.inst"
        block = LatticeBlock(F(0), F(0), F(8), F(8), F(2))  # 25 disks
        p.write_text(write_instance(Instance("euclidean", 0, F(0), (),
                                             (block,))))
        monkeypatch.setattr(cli, "BLOCK_CAP", 24)
        assert dispatch(["solve", str(p), "--expand-blocks"]) == 64
        assert "more than 24 block disks" in capsys.readouterr().err
        monkeypatch.setattr(cli, "BLOCK_CAP", 25)
        assert dispatch(["solve", str(p), "--expand-blocks"]) == 0


class TestKernelizeCommand:
    def test_writes_report_comments(self, tmp_path):
        p = tmp_path / "inst"
        p.write_text("DISKDISPERSAL v1\nvariant: euclidean\nk: 1\nd2: 1\n"
                     "disks: 4\n0 0\n1 0\n5 0\n10 7/3\n")
        out = tmp_path / "kern"
        assert dispatch(["kernelize", str(p), str(out)]) == 0
        body = out.read_text()
        assert "# cover: [0, 1]" in body
        assert "# threshold: 6" in body
        # 7/3 = 2 + 1/3 gives b + c = 1 + 3
        assert "# coord_stat: 4\n" in body
        inst = parse_instance(body)
        assert len(inst.disks) == 3

    def test_shrink_flag(self, tmp_path):
        p = tmp_path / "inst"
        p.write_text("DISKDISPERSAL v1\nvariant: euclidean\nk: 1\nd2: 1\n"
                     "disks: 2\n100 100\n101 100\n")
        out = tmp_path / "kern"
        assert dispatch(["kernelize", str(p), str(out), "--shrink"]) == 0
        inst = parse_instance(out.read_text())
        assert min(d.x for d in inst.disks) == 0

    def test_colocated_pair_without_moves_is_trivially_no(self, tmp_path,
                                                          capsys):
        p = tmp_path / "inst"
        p.write_text("DISKDISPERSAL v1\nvariant: euclidean\nk: 0\nd2: 1\n"
                     "disks: 2\n0 0\n0 0\n")
        out = tmp_path / "kern"
        assert dispatch(["kernelize", str(p), str(out)]) == 1
        assert capsys.readouterr().out.startswith("trivially-no: ")
        assert not out.exists()

    def test_shrink_kernelizes_once(self, tmp_path, monkeypatch):
        from diskdispersal import cli, kernel
        calls = []
        original = kernel.kernelize

        def counting(inst):
            calls.append(inst)
            return original(inst)

        monkeypatch.setattr(kernel, "kernelize", counting)
        monkeypatch.setattr(cli, "kernelize", counting)
        p = tmp_path / "inst"
        p.write_text("DISKDISPERSAL v1\nvariant: euclidean\nk: 1\nd2: 1\n"
                     "disks: 3\n100 100\n101 100\n140 100\n")
        out = tmp_path / "kern"
        assert dispatch(["kernelize", str(p), str(out), "--shrink"]) == 0
        assert len(calls) == 1


class TestGenerateCommands:
    def test_random_and_solve(self, tmp_path):
        out = tmp_path / "r.inst"
        assert dispatch(["generate", "random", str(out), "--n", "6",
                         "--side", "10", "--seed", "3", "--k", "1",
                         "--d2", "1"]) == 0
        inst = parse_instance(out.read_text())
        assert len(inst.disks) == 6

    def test_colocated(self, tmp_path):
        out = tmp_path / "c.inst"
        assert dispatch(["generate", "colocated", str(out), "--m", "4",
                         "--k", "2", "--d2", "1000000"]) == 0
        assert dispatch(["solve", str(out)]) == 1

    def test_gridtiling_and_witness(self, tmp_path):
        gtf = tmp_path / "gt.txt"
        gtf.write_text(GT_TEXT)
        inst_f = tmp_path / "gt.inst"
        assert dispatch(["generate", "gridtiling", str(gtf),
                         str(inst_f)]) == 0
        wf = tmp_path / "gt.wit"
        assert dispatch(["generate", "gridtiling-witness", str(gtf),
                         str(inst_f), str(wf), "--rows", "1",
                         "--cols", "2"]) == 0
        assert dispatch(["validate", str(inst_f), str(wf)]) == 0

    def test_crosscompose(self, tmp_path):
        out = tmp_path / "x.inst"
        assert dispatch(["generate", "crosscompose", str(out), "--t", "3",
                         "--a", "216", "--kappa", "2"]) == 0
        inst = parse_instance(out.read_text())
        assert inst.k == 5

    def test_appending_frame(self, tmp_path):
        out = tmp_path / "a.inst"
        assert dispatch(["generate", "appending", str(out), "--a", "216",
                         "--kappa", "1"]) == 0
        inst = parse_instance(out.read_text())
        assert len(inst.disks) == 2 * 216 - 4 and inst.k == 1

    def test_full_chain_generate_solve_validate_render(self, tmp_path):
        inst_f = tmp_path / "chain.inst"
        assert dispatch(["generate", "random", str(inst_f), "--n", "5",
                         "--side", "9", "--seed", "19", "--k", "2",
                         "--d2", "9"]) == 0
        wit_f = tmp_path / "chain.wit"
        rc = dispatch(["solve", str(inst_f), "--witness", str(wit_f)])
        assert rc in (0, 1)
        if rc == 0:
            assert dispatch(["validate", str(inst_f), str(wit_f)]) == 0
            svg_f = tmp_path / "chain.svg"
            assert dispatch(["render", str(inst_f), str(svg_f),
                             "--witness", str(wit_f)]) == 0
            assert svg_f.read_text().startswith("<svg")
        # the oracle must not contradict whatever the solver said
        orc = dispatch(["solve", str(inst_f), "--oracle", "--delta", "1/8"])
        assert {rc, orc} != {0, 1}


class TestDispatchBasics:
    def test_unknown_subcommand_64(self):
        assert dispatch(["frobnicate"]) == 64

    def test_no_subcommand_64(self):
        assert dispatch([]) == 64

    def test_help_exit_zero(self):
        assert dispatch(["--help"]) == 0
        assert dispatch(["solve", "--help"]) == 0

    def test_graph_edges(self, fig1, capsys):
        assert dispatch(["graph", str(fig1)]) == 0
        out = capsys.readouterr().out
        assert "0 1" in out and "1 2" in out

    def test_graph_notes_blocks_it_leaves_out(self, tmp_path, capsys):
        p = tmp_path / "block.inst"
        block = LatticeBlock(F(10), F(0), F(14), F(4), F(2))
        p.write_text(write_instance(Instance("euclidean", 0, F(0),
                                             (P(0, 0),), (block,))))
        assert dispatch(["graph", str(p)]) == 0
        assert capsys.readouterr().out == (
            "# note: 1 lattice blocks not included\nvertices: 1\n")

    @pytest.mark.parametrize("argv", [
        ["solve", "{inst}", "--delta", "1/0"],
        ["solve", "{inst}", "--delta", "0.5"],
        ["solve", "{inst}", "--time-budget", "-1"],
        ["solve", "{inst}", "--time-budget", "nan"],
        ["generate", "random", "{out}", "--n", "2", "--side", "9",
         "--d2", "1/0"],
        ["render", "{inst}", "{out}", "--scale", "1/0"],
        ["validate", "{inst}", "{wit}", "--tolerant", "1/0"],
        ["validate", "{inst}", "{wit}", "--tolerant=-1/1000"],
        ["solve", "{inst}", "--delta", "0"],
        ["solve", "{inst}", "--delta=-1/2"],
        ["solve", "{inst}", "--oracle", "--delta", "0"],
        ["render", "{inst}", "{out}", "--scale", "0"],
        ["generate", "random", "{out}", "--n", "2", "--side", "9",
         "--d2=-1"],
        ["generate", "random", "{out}", "--n", "2", "--side", "9",
         "--d2", "\uff13"],
        ["generate", "colocated", "{out}", "--m", "2", "--k", "1",
         "--d2=-1"],
        ["generate", "gridtiling-witness", "{inst}", "{inst}", "{out}",
         "--rows", "x", "--cols", "1"],
        ["generate", "gridtiling-witness", "{inst}", "{inst}", "{out}",
         "--rows", "1", "--cols", "1,,2"],
        ["generate", "random", "{out}", "--n", "-1", "--side", "9"],
        ["generate", "random", "{out}", "--n", "2", "--side", "0"],
        ["generate", "random", "{out}", "--n", "2", "--side", "9",
         "--k", "-1"],
        ["generate", "colocated", "{out}", "--m", "-1", "--k", "1",
         "--d2", "1"],
        ["generate", "colocated", "{out}", "--m", "2", "--k", "-1",
         "--d2", "1"],
        ["generate", "appending", "{out}", "--a", "-1", "--kappa", "0"],
        ["generate", "appending", "{out}", "--a", "216", "--kappa", "-1"],
        ["generate", "crosscompose", "{out}", "--t", "-1", "--a", "216",
         "--kappa", "1"],
        ["generate", "crosscompose", "{out}", "--t", "3", "--a", "-1",
         "--kappa", "1"],
        ["generate", "crosscompose", "{out}", "--t", "3", "--a", "216",
         "--kappa", "-1"],
        # int() reads these; the file formats' integer grammar does not
        ["generate", "random", "{out}", "--n", "\uff13", "--side", "9"],
        ["generate", "random", "{out}", "--n", "2", "--side", "9",
         "--k", "1_0"],
        ["generate", "random", "{out}", "--n", "2", "--side", "9",
         "--seed", "\u0663"],
        ["generate", "gridtiling-witness", "{inst}", "{inst}", "{out}",
         "--rows", "1_0", "--cols", "1"],
        # float() reads these; the rational grammar does not
        ["solve", "{inst}", "--time-budget", "1_0"],
        ["solve", "{inst}", "--time-budget", "\uff13"],
        ["solve", "{inst}", "--time-budget", "inf"],
        ["solve", "{inst}", "--time-budget", "2.5"],
        # rationals that become floats, beyond float range
        ["solve", "{inst}", "--time-budget", str(10 ** 400)],
        ["render", "{inst}", "{out}", "--scale", str(10 ** 400)],
    ])
    def test_bad_option_values_64(self, fig1, tmp_path, capsys, argv):
        wit = tmp_path / "w.out"
        wit.write_text("DISPERSALMOVES v1\nmoves: 0\n")
        paths = {"inst": fig1, "out": tmp_path / "out", "wit": wit}
        assert dispatch([a.format(**paths) for a in argv]) == 64
        out = capsys.readouterr()
        assert "error:" in out.err and out.out == ""
        assert not (tmp_path / "out").exists()


class TestModuleEntryPoint:
    def test_python_dash_m_runs(self, fig1):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "diskdispersal.cli", "solve", str(fig1)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "yes" in proc.stdout

    def test_python_dash_m_usage_error(self):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "diskdispersal.cli", "frobnicate"],
            capture_output=True, text=True)
        assert proc.returncode == 64


class TestRendering:
    def test_deterministic_bytes(self):
        inst = Instance("euclidean", 1, F(3),
                        (P(0, 0), P(1, 0), P(2, 0)),
                        (LatticeBlock(F(6), F(0), F(10), F(4), F(2)),))
        w = Witness({1: P(1, 10)})
        a = render_svg(inst, w)
        b = render_svg(inst, w)
        assert a == b
        assert a.count("<rect") == 1  # the block, hatched

    @pytest.mark.parametrize("index", [-1, 3])
    def test_witness_index_outside_the_instance(self, index):
        inst = Instance("euclidean", 1, F(3), (P(0, 0), P(1, 0), P(2, 0)))
        with pytest.raises(ValueError, match=f"witness index {index} out"):
            render_svg(inst, Witness({index: P(1, 2)}))

    def test_empty_canvas(self):
        svg = render_svg(Instance("euclidean", 0, F(0), ()))
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_block_drawn_as_rectangle(self):
        inst = Instance("euclidean", 0, F(0), (),
                        (LatticeBlock(F(0), F(0), F(100), F(100), F(2)),))
        svg = render_svg(inst)
        assert svg.count("<rect") == 1
        assert svg.count("<circle") == 0
