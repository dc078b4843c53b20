import random
from fractions import Fraction as F

import pytest

from diskdispersal.geometry import Point, dist2
from diskdispersal.instance_io import Instance, validate_witness
from diskdispersal.kernel import (
    derived_d,
    full_kernel,
    halo_partition,
    kernelize,
    shrink_parts,
    size_bound,
)
from diskdispersal.numerics import (
    IndeterminateError,
    parse_scalar,
    quadext,
    sign_le,
)
from diskdispersal.solver import solve
from diskdispersal.udg import build_graph


def P(x, y):
    return Point(F(x), F(y))


class TestKernelize:
    def test_distance_filter_worked_example(self):
        # threshold (d+2)(k+1) = 3*2 = 6; disk at x=10 is 9 away from the
        # nearest cover disk and gets dropped
        inst = Instance("euclidean", 1, F(1),
                        (P(0, 0), P(1, 0), P(5, 0), P(10, 0)))
        out, report = kernelize(inst)
        assert report.cover == (0, 1)
        assert report.threshold == 6
        assert report.kept == (0, 1, 2)
        assert report.removed == (3,)
        assert out.disks == inst.disks[:3]
        assert out.k == inst.k and out.d2 == inst.d2

    def test_edgeless_collapses_to_empty(self):
        inst = Instance("euclidean", 2, F(4), (P(0, 0), P(10, 0)))
        out, report = kernelize(inst)
        assert report.cover == ()
        assert out.disks == ()

    def test_all_within_threshold_identity(self):
        inst = Instance("euclidean", 1, F(1), (P(0, 0), P(1, 0), P(3, 0)))
        out, report = kernelize(inst)
        assert out.disks == inst.disks

    def test_trivially_no(self):
        inst = Instance("euclidean", 1, F(1),
                        (P(0, 0), P(1, 0), P(50, 0), P(51, 0)))
        assert kernelize(inst) is None

    def test_boundary_disk_kept(self):
        # exactly at threshold distance 6 from the cover
        inst = Instance("euclidean", 1, F(1), (P(0, 0), P(1, 0), P(7, 0)))
        out, report = kernelize(inst)
        assert 2 in report.kept

    def test_undecided_disk_at_the_threshold_is_kept(self):
        # disk 2 at 7.000000000~ lies 6~ from cover disk 1, which the exact
        # comparison cannot tell from the threshold 6: it is kept, and as it
        # has no edge the solve goes on to a yes
        inst = Instance("euclidean", 1, F(1), (
            P(0, 0), P(1, 0), Point(parse_scalar("7.000000000~"), F(0))))
        out, report = kernelize(inst)
        assert report.kept == (0, 1, 2) and out.disks == inst.disks
        assert report.graph.edges == ((0, 1),)
        ans = solve(inst)
        assert str(ans) == "yes (1 moves)"
        assert str(validate_witness(inst, ans.witness)) == "accept"

    def test_size_bound_holds(self):
        rng = random.Random(2)
        for trial in range(25):
            n = rng.randint(1, 18)
            disks = tuple(P(F(rng.randint(0, 40), 4), F(rng.randint(0, 40), 4))
                          for _ in range(n))
            k = rng.randint(0, 3)
            d2 = F(rng.randint(1, 9))
            kr = kernelize(Instance("euclidean", k, d2, disks))
            if kr is None:
                continue
            out, report = kr
            assert set(report.kept) | set(report.removed) == set(range(n))
            assert not set(report.kept) & set(report.removed)
            assert len(report.kept) <= report.size_bound

    def test_filter_matches_exact_comparison(self):
        # rational pairs are decided on integers, the rest by sign_le; both
        # keep a disk exactly at the threshold
        rng = random.Random(5)
        for trial in range(40):
            k, d2 = rng.randint(1, 3), rng.choice([F(1, 4), F(1), F(9, 4)])
            t = (derived_d(d2) + 2) * (k + 1)
            # the cover holds disks 0 and 1; disk 2 lies exactly at the
            # threshold from disk 0
            disks = [P(0, 0), P(1, 0), P(-t, 0)] + [
                P(F(rng.randint(0, 60), rng.choice([1, 2, 3, 7])),
                  F(rng.randint(0, 60), rng.choice([1, 4, 5])))
                for _ in range(rng.randint(0, 11))]
            n = len(disks)
            if trial % 2:
                i = rng.randrange(2, n)
                disks[i] = Point(quadext(disks[i].x, 1, 2), disks[i].y)
            inst = Instance("euclidean", k, d2, tuple(disks))
            kr = kernelize(inst)
            if kr is None:
                continue
            report = kr[1]
            t2 = report.threshold ** 2
            kept = tuple(i for i, p in enumerate(disks) if any(
                sign_le(dist2(p, disks[c]), t2) for c in report.cover))
            assert report.kept == kept
            assert report.removed == tuple(sorted(set(range(n)) - set(kept)))

    def test_filter_off_the_scale_matches_exact_comparison(self):
        # disks with distinct prime denominators near 10^6 pass the scale's
        # bound and go through sign_le; the integer disks stay on the scale
        rng = random.Random(8)
        primes = [n for n in range(10 ** 6 + 1, 10 ** 6 + 3000, 2)
                  if all(n % d for d in range(3, 1003, 2))]
        for trial in range(20):
            k, d2 = rng.randint(1, 2), rng.choice([F(1, 4), F(1)])
            fresh = iter(rng.sample(primes, 20))
            disks = [P(0, 0), P(1, 0)]
            for _ in range(rng.randint(4, 10)):
                p, q = next(fresh), next(fresh)
                disks.append(Point(F(rng.randint(-30 * p, 30 * p), p),
                                   F(rng.randint(-30 * q, 30 * q), q)))
            disks.append(P(rng.randint(-30, 30), rng.randint(-30, 30)))
            kr = kernelize(Instance("euclidean", k, d2, tuple(disks)))
            if kr is None:
                continue
            report = kr[1]
            t2 = report.threshold ** 2
            kept = tuple(i for i, p in enumerate(disks) if any(
                sign_le(dist2(p, disks[c]), t2) for c in report.cover))
            assert report.kept == kept

    @pytest.mark.parametrize("variant", ["euclidean", "rectilinear"])
    def test_report_graph_is_the_kernel_graph(self, variant):
        # solve reads the kernel's graph off the report instead of building
        # it again; some disks get a radical or a ``~`` coordinate
        rng = random.Random(11)
        checked = 0
        for trial in range(60):
            disks = [P(F(rng.randint(0, 48), 4), F(rng.randint(0, 48), 4))
                     for _ in range(rng.randint(2, 14))]
            for i in rng.sample(range(len(disks)), rng.randint(0, 2)):
                x = disks[i].x
                disks[i] = Point(
                    quadext(x, F(1, 8), 2) if rng.random() < 0.5 else
                    parse_scalar(f"{float(x) + 0.17678:.5f}~"), disks[i].y)
            inst = Instance(variant, rng.randint(0, 3),
                            rng.choice([F(1, 4), F(1), F(2)]), tuple(disks))
            try:
                kr = kernelize(inst)
            except IndeterminateError:
                continue
            if kr is None:
                continue
            kinst, report = kr
            assert report.graph == build_graph(kinst.disks)
            checked += 1
        assert checked >= 30


class TestSizeBound:
    def test_worked_value(self):
        assert size_bound(1, F(1)) == 2 + 2 * 64

    def test_zero_budget(self):
        assert size_bound(0, F(5)) == 0

    def test_monotone(self):
        vals_k = [size_bound(k, F(2)) for k in range(6)]
        assert vals_k == sorted(vals_k)
        vals_d = [size_bound(2, F(d)) for d in range(1, 8)]
        assert vals_d == sorted(vals_d)


class TestShrinkParts:
    def test_two_singletons_on_diagonal(self):
        disks = [P(100, 100), P(500, 500)]
        out = shrink_parts(disks, [[0], [1]], F(4))
        assert out == [P(0, 0), P(4, 4)]
        assert dist2(out[0], out[1]) == 32  # (4*sqrt2)^2 > 4^2

    def test_single_part_moves_to_corner(self):
        disks = [P(10, 7), P(12, 9), P(11, 20)]
        out = shrink_parts(disks, [[0, 1, 2]], F(2))
        assert min(p.x for p in out) == 0
        assert min(p.y for p in out) == 0

    def test_intra_part_distances_exact(self):
        rng = random.Random(9)
        for trial in range(100):
            n = rng.randint(2, 10)
            disks = [P(F(rng.randint(-400, 400), 4),
                       F(rng.randint(-400, 400), 4)) for _ in range(n)]
            idx = list(range(n))
            rng.shuffle(idx)
            cut = rng.randint(1, n)
            parts = [idx[:cut], idx[cut:]]
            parts = [p for p in parts if p]
            r = F(rng.randint(1, 10))
            out = shrink_parts(disks, parts, r)
            for part in parts:
                for a in part:
                    for b in part:
                        assert dist2(disks[a], disks[b]) == \
                            dist2(out[a], out[b])
            if len(parts) == 2:
                for a in parts[0]:
                    for b in parts[1]:
                        assert dist2(out[a], out[b]) > r * r


class TestHaloPartition:
    def test_far_disks_split(self):
        # d = 1: centers 5 apart exceed 2d+2 = 4
        inst = Instance("euclidean", 1, F(1), (P(0, 0), P(5, 0)))
        assert halo_partition(inst) == [[0], [1]]

    def test_near_disks_together(self):
        inst = Instance("euclidean", 1, F(1), (P(0, 0), P(3, 0)))
        assert halo_partition(inst) == [[0, 1]]

    def test_single_disk(self):
        inst = Instance("euclidean", 1, F(1), (P(7, 7),))
        assert halo_partition(inst) == [[0]]

    def test_parts_separated_beyond_reach(self):
        rng = random.Random(4)
        for trial in range(20):
            disks = tuple(P(rng.randint(0, 60), rng.randint(0, 60))
                          for _ in range(8))
            inst = Instance("euclidean", 2, F(4), disks)
            d = derived_d(inst.d2)
            parts = halo_partition(inst)
            lim = (2 * d + 2) ** 2
            for pi in range(len(parts)):
                for pj in range(pi + 1, len(parts)):
                    for a in parts[pi]:
                        for b in parts[pj]:
                            assert dist2(disks[a], disks[b]) > lim


class TestFullKernel:
    def test_single_part_translated_to_origin(self):
        inst = Instance("euclidean", 1, F(3), (P(0, 0), P(1, 0), P(2, 0)))
        out = full_kernel(inst)
        assert out.disks == inst.disks  # already at the corner

    def test_far_parts_brought_near(self):
        inst = Instance("euclidean", 2, F(3),
                        (P(0, 0), P(1, 0), P(1000, 1000), P(1001, 1000)))
        out = full_kernel(inst)
        assert len(out.disks) == 4
        assert max(abs(p.x) for p in out.disks) < 1000
        # intra-pair geometry preserved
        assert dist2(out.disks[2], out.disks[3]) == 1

    def test_empty(self):
        inst = Instance("euclidean", 1, F(3), ())
        assert full_kernel(inst).disks == ()

    def test_trivially_no_maps_to_canonical_no(self):
        inst = Instance("euclidean", 0, F(3), (P(0, 0), P(1, 0)))
        out = full_kernel(inst)
        assert out.k == 0 and len(out.disks) == 2
        assert out.disks[0] == out.disks[1]
