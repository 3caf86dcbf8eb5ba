import itertools

import numpy as np
import pytest

from procgeom import (
    AlphabetMismatch,
    DepthExceeded,
    belief_from_string,
    epsilon_synchronize,
    joint_epsilon_synchronize,
    reset_word,
    scale_process,
    as_process,
    Pfsa,
)
from conftest import (make_feed3, make_g2, make_m2, make_perm2, make_single, make_t3,
                      make_u3, reset_word_reference)


def exhaustive_best(g, max_len):
    """Oracle: scan every string up to max_len for the best belief peak."""
    best = (-1.0, None)
    for length in range(max_len + 1):
        for w in itertools.product(range(g.n_symbols), repeat=length):
            peak = float(belief_from_string(g, np.array(w, dtype=np.int64)).max())
            if peak > best[0]:
                best = (peak, w)
    return best


def assert_replays(machine, res, string):
    """The certificate equals an independent fold of the belief recursion, bit for bit."""
    replay = belief_from_string(machine, string)
    peak = int(np.argmax(replay))
    assert res.string == tuple(string)
    assert res.achieved == float(replay[peak])
    assert res.state == machine.states[peak]


def tenth_g2():
    return scale_process(0.1, as_process(make_g2(), "G")).machine


class TestCertificatesReplay:
    @pytest.mark.parametrize("make", [make_g2, make_m2, make_t3, make_u3, tenth_g2],
                             ids=["g2", "m2", "t3", "u3", "tenth-g2"])
    @pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-6])
    def test_single_and_joint_certificates(self, make, eps):
        g = make()
        res = epsilon_synchronize(g, eps)
        assert_replays(g, res, res.string)
        partner = make_u3() if g.n_symbols == 3 else make_m2()
        rg, rh, string = joint_epsilon_synchronize(g, partner, eps)
        for machine, r in zip((g, partner), (rg, rh)):
            assert_replays(machine, r, string)

    def test_depth_exceeded_best(self):
        perm2 = make_perm2()
        with pytest.raises(DepthExceeded) as exc_info:
            epsilon_synchronize(perm2, 0.01, max_depth=6)
        best = exc_info.value.best
        assert_replays(perm2, best, best.string)
        # perm2's belief never moves, so its best string stays empty; t3 with
        # g2 runs out of depth on a non-empty best string
        for pair, eps, depth, best_len in (((make_g2(), perm2), 0.01, 6, 0),
                                           ((make_t3(), make_g2()), 1e-6, 2, 2)):
            with pytest.raises(DepthExceeded) as exc_info:
                joint_epsilon_synchronize(*pair, eps, max_depth=depth)
            for machine, r in zip(pair, exc_info.value.best):
                assert_replays(machine, r, r.string)
                assert len(r.string) == best_len

    @pytest.mark.parametrize("partner, max_depth, certified",
                             [(None, None, True), (make_m2, None, True), (make_g2, 6, False)],
                             ids=["t3", "t3-m2", "t3-g2-depth6"])
    def test_truncated_frontier_certifies_or_reports_its_best(self, monkeypatch, partner,
                                                              max_depth, certified):
        # a frontier of more than 4 entries is cut to its best 2: the search
        # still ends in a certificate, or in a best result that replays
        import heapq

        import procgeom.sync as sync

        cuts = []
        nsmallest = heapq.nsmallest

        def counted(n, heap):
            cuts.append((n, len(heap)))
            return nsmallest(n, heap)

        monkeypatch.setattr(sync, "FRONTIER_CAP", 4)
        monkeypatch.setattr(heapq, "nsmallest", counted)
        machines = (make_t3(),) if partner is None else (make_t3(), partner())
        eps = 1e-6
        if certified:
            results, string = sync._frontier_search(machines, eps, max_depth)
            assert all(r.achieved >= 1.0 - eps for r in results)
        else:
            with pytest.raises(DepthExceeded) as exc_info:
                sync._frontier_search(machines, eps, max_depth)
            results = exc_info.value.best
            string = results[0].string
        assert cuts and all(n == 2 and size > 4 for n, size in cuts)
        for machine, r in zip(machines, results):
            assert_replays(machine, r, string)


class TestEpsilonSynchronize:
    def test_g2_synchronizes_on_zero(self, g2):
        res = epsilon_synchronize(g2, 0.01)
        assert res.string == ("0",)
        assert res.achieved == 1.0
        assert res.state == "A"
        # oracle: exhaustive scan of strings up to length 2
        peak, word = exhaustive_best(g2, 2)
        assert peak == 1.0 and len(word) <= 1

    def test_single_state_needs_empty_string(self):
        res = epsilon_synchronize(make_single(), 0.5)
        assert res.string == ()
        assert res.achieved == 1.0

    def test_permutation_machine_exceeds_depth(self):
        g = make_perm2()
        with pytest.raises(DepthExceeded) as exc_info:
            epsilon_synchronize(g, 0.01, max_depth=6)
        best = exc_info.value.best
        assert best.achieved == pytest.approx(0.5)
        # oracle: no string up to the depth bound beats the uniform belief
        peak, _ = exhaustive_best(g, 6)
        assert peak == pytest.approx(0.5)

    def test_achieved_verified_by_replay(self, t3):
        res = epsilon_synchronize(t3, 1e-6)
        replay = belief_from_string(t3, res.string)
        assert float(replay.max()) == pytest.approx(res.achieved, abs=1e-12)
        assert t3.states[int(np.argmax(replay))] == res.state
        assert res.achieved >= 1.0 - 1e-6

    def test_monotone_in_eps(self, t3):
        res = epsilon_synchronize(t3, 0.05)
        replay = float(belief_from_string(t3, res.string).max())
        for eps in (0.1, 0.3, 0.6):
            assert replay >= 1.0 - eps

    def test_achieved_monotone_along_prefix_chain(self, g2):
        p = as_process(g2, "G")
        for machine in (g2, scale_process(0.1, p).machine):
            res = epsilon_synchronize(machine, 1e-6)
            peaks = [
                float(belief_from_string(machine, res.string[:i]).max())
                for i in range(len(res.string) + 1)
            ]
            assert all(a <= b + 1e-12 for a, b in zip(peaks, peaks[1:]))

    def test_bad_eps_rejected(self, g2):
        with pytest.raises(ValueError):
            epsilon_synchronize(g2, 0.0)
        with pytest.raises(ValueError):
            epsilon_synchronize(g2, 1.0)


class TestJointSynchronize:
    def test_same_machine_twice(self, g2):
        rg, rh, string = joint_epsilon_synchronize(g2, g2, 0.01)
        assert string == ("0",)
        assert rg.achieved == rh.achieved == 1.0

    def test_with_single_state(self, g2):
        rg, rh, string = joint_epsilon_synchronize(g2, make_single(), 0.01)
        assert string == ("0",)
        assert rh.achieved == 1.0

    def test_with_scaled_copy(self, g2):
        p = as_process(g2, "G")
        tenth = scale_process(0.1, p).machine
        rg, rh, string = joint_epsilon_synchronize(g2, tenth, 1e-6, max_depth=128)
        for machine, res in ((g2, rg), (tenth, rh)):
            replay = float(belief_from_string(machine, string).max())
            assert replay >= 1.0 - 1e-6
            assert replay == pytest.approx(res.achieved, abs=1e-12)

    def test_alphabet_mismatch(self, g2, u3):
        with pytest.raises(AlphabetMismatch):
            joint_epsilon_synchronize(g2, u3, 0.1)

    def test_permutation_pair_exceeds_depth(self, g2):
        with pytest.raises(DepthExceeded) as exc_info:
            joint_epsilon_synchronize(g2, make_perm2(), 0.01, max_depth=6)
        best = exc_info.value.best
        assert len(best) == 2
        assert best[1].achieved == pytest.approx(0.5)


def random_machine(n=50, seed=1):
    """A random test machine in normal form (n = 50, seed 1: 41 states)."""
    rng = np.random.default_rng(seed)
    delta = rng.integers(0, n, (n, 2))
    rows = np.maximum(rng.dirichlet([2.0, 2.0], n), 1e-3)
    g = Pfsa(["0", "1"], [f"s{i}" for i in range(n)], delta, rows / rows.sum(axis=1, keepdims=True))
    return as_process(g).machine


def assert_point_mass(machine, word):
    """Replaying the word from the stationary belief leaves exactly one state."""
    b = belief_from_string(machine, word)
    assert np.count_nonzero(b) == 1 and b.max() == 1.0


class TestResetWord:
    @pytest.mark.parametrize("make", [make_g2, make_m2, make_u3, make_single, random_machine],
                             ids=["g2", "m2", "u3", "single", "r50"])
    def test_word_leaves_a_point_mass(self, make):
        g = make()
        word = reset_word(g)
        assert word is not None
        assert all(s in g.alphabet for s in word)
        assert_point_mass(g, word)

    @pytest.mark.parametrize("make", [make_t3, make_feed3, make_perm2], ids=["t3", "feed3", "perm2"])
    def test_none_without_a_merging_word(self, make):
        assert reset_word(make()) is None

    def test_one_word_merges_every_machine(self):
        machines = (random_machine(50, 1), random_machine(50, 2), make_g2(), make_m2())
        word = reset_word(*machines)
        for g in machines:
            assert_point_mass(g, word)
        assert reset_word(make_g2(), make_t3()) is None

    def test_single_states_need_no_symbol(self):
        assert reset_word(make_single()) == ()
        assert reset_word(make_single(), make_single(row=[0.3, 0.7])) == ()

    def test_merges_each_pair_by_a_shortest_word(self, u3, g2):
        # 'a' sends every state of u3 to x; g2 merges on either symbol, the
        # smaller one first
        assert reset_word(u3) == ("a",)
        assert reset_word(g2) == ("0",)

    @staticmethod
    def cerny(n):
        """Cerny's machine: symbol 0 rotates the states, symbol 1 merges
        state 0 into state 1; its shortest reset word has (n - 1)**2 symbols."""
        delta = np.stack([(np.arange(n) + 1) % n, np.arange(n)], axis=1)
        delta[0, 1] = 1
        return Pfsa(["0", "1"], [f"c{i}" for i in range(n)], delta, np.full((n, 2), 0.5))

    @staticmethod
    def seeded_machines(seed):
        """One to three machines on one alphabet of 2 or 3 symbols, each of
        2 to 60 states.  Each symbol of a machine maps its states at random,
        or, at random, permutes them; a machine whose symbols all permute
        has no reset word."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 4))
        alphabet = [str(s) for s in range(k)]
        machines = []
        for _ in range(int(rng.integers(1, 4))):
            n = int(rng.integers(2, 61))
            delta = rng.integers(0, n, (n, k))
            for s in np.flatnonzero(rng.random(k) < 0.5):
                delta[:, s] = rng.permutation(n)
            rows = np.maximum(rng.dirichlet([2.0] * k, n), 1e-3)
            machines.append(Pfsa(alphabet, [f"s{i}" for i in range(n)], delta,
                                 rows / rows.sum(axis=1, keepdims=True)))
        return tuple(machines)

    @pytest.mark.parametrize("make", [make_g2, make_m2, make_u3, make_single, make_t3, make_feed3,
                                      make_perm2, random_machine],
                             ids=["g2", "m2", "u3", "single", "t3", "feed3", "perm2", "r50"])
    def test_matches_reference_greedy_on_fixtures(self, make):
        g = make()
        assert reset_word(g) == reset_word_reference(g)
        assert reset_word(g, g) == reset_word_reference(g, g)

    def test_matches_reference_greedy_on_fixture_pairs(self):
        machines = (random_machine(50, 1), random_machine(50, 2), make_g2(), make_m2(), make_perm2())
        for pair in itertools.permutations(machines, 2):
            assert reset_word(*pair) == reset_word_reference(*pair)
        assert reset_word(*machines[:4]) == reset_word_reference(*machines[:4])

    @pytest.mark.parametrize("n", [8, 16])
    def test_matches_reference_greedy_on_cerny_machines(self, n):
        g = self.cerny(n)
        word = reset_word(g)
        assert word == reset_word_reference(g)
        assert len(word) >= (n - 1) ** 2
        assert_point_mass(g, word)

    def test_matches_reference_greedy_on_seeded_machines(self):
        found = {True: 0, False: 0}
        for seed in range(60):
            machines = self.seeded_machines(seed)
            word = reset_word(*machines)
            assert word == reset_word_reference(*machines), seed
            found[word is not None] += 1
        assert min(found.values()) >= 5  # both outcomes are covered

    def test_shared_tables_give_each_call_its_own_word(self):
        # the Monte Carlo angle's three calls share one dict: a machine that
        # leads a call reuses its own word, one that follows continues it
        from procgeom.sync import _reset_word

        for seed in range(40):
            machines = self.seeded_machines(seed)
            p, q = machines[0], machines[-1]
            tables = {}
            for call in ((p, q), (p, p), (q, q), (q, p), (p,), (q,)):
                word = _reset_word(call, tables)
                names = None if word is None else tuple(p.alphabet[s] for s in word)
                assert names == reset_word_reference(*call), (seed, call)

    def test_a_repeated_machine_runs_one_greedy_merge(self, monkeypatch):
        import procgeom.sync as sync

        merged = []
        greedy = sync._greedy_merge

        def counting(g, *args):
            merged.append(g)
            return greedy(g, *args)

        monkeypatch.setattr(sync, "_greedy_merge", counting)
        for seed in range(40):
            p = self.seeded_machines(seed)[0]
            merged.clear()
            word = sync._reset_word((p, p), {})
            names = None if word is None else tuple(p.alphabet[s] for s in word)
            assert names == reset_word_reference(p, p), seed
            assert merged == ([] if word is None else [p]), seed

    def test_merge_table_reads_one_pair_table(self, monkeypatch):
        # _merge_table builds no table of its own: it transposes _pair_delta(g, g)
        import procgeom.sync as sync

        calls = []
        pair_delta = sync._pair_delta

        def counting(g, h):
            calls.append((g, h))
            return pair_delta(g, h)

        monkeypatch.setattr(sync, "_pair_delta", counting)
        for g in [self.cerny(8)] + [m for seed in range(10) for m in self.seeded_machines(seed)]:
            calls.clear()
            table = sync._merge_table(g)
            assert calls == [(g, g)]
            if table is not None:
                assert np.array_equal(table[0], pair_delta(g, g).T)

    def test_pair_delta_is_the_row_view_of_one_symbol_major_table(self):
        from procgeom.sync import _pair_delta

        for seed in range(30):
            machines = self.seeded_machines(seed)
            for g, h in itertools.product(machines, repeat=2):
                delta = _pair_delta(g, h)
                nh, k = h.n_states, g.n_symbols
                rows = (g._delta[:, None, :] * nh + h._delta[None, :, :]).reshape(-1, k)
                assert delta.shape == (g.n_states * nh, k) and delta.dtype == np.int64
                assert np.array_equal(delta, rows), seed
                assert delta.T.flags.c_contiguous and not delta.flags.owndata, seed

    @staticmethod
    def merging_reference(g, i, j):
        """Breadth-first search forward from the one pair (i, j): the length
        of a shortest word that merges it and the smallest first symbol of
        such a word, or None if no word merges it."""
        delta = g._delta.tolist()
        seen, level, depth = {(i, j)}, {(i, j): None}, 0
        while level:
            depth += 1
            nxt = {}  # each pair first reached at this depth: the smallest first symbol that reaches it
            for (a, b), start in level.items():
                for s in range(g.n_symbols):
                    pair, word_start = (delta[a][s], delta[b][s]), s if start is None else start
                    if pair not in seen:
                        nxt[pair] = min(nxt.get(pair, word_start), word_start)
            merged = [start for (a, b), start in nxt.items() if a == b]
            if merged:
                return depth, min(merged)
            seen.update(nxt)
            level = nxt
        return None

    def test_merge_table_matches_per_pair_searches(self):
        # every pair of a machine of up to 10 states and 40 seeded pairs of
        # each larger one; a machine without a table has a pair that never merges
        from procgeom.sync import _merge_table

        rng = np.random.default_rng(0)
        machines = [m for seed in range(60) for m in self.seeded_machines(seed)] + [self.cerny(8)]
        for g in machines:
            n, table = g.n_states, _merge_table(g)
            pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
            if table is None:
                assert any(self.merging_reference(g, i, j) is None for i, j in pairs)
                continue
            _, dist, first = table
            assert (np.diag(dist) == n * n).all() and (first[:: n + 1] == -1).all()
            if len(pairs) > 100:
                pairs = [pairs[t] for t in rng.choice(len(pairs), 40, replace=False)]
            for i, j in pairs:
                assert (dist[i, j], first[i * n + j]) == self.merging_reference(g, i, j), (n, i, j)

    def test_merge_table_holds_one_pair_table_at_its_peak(self):
        # the transposed pair table is built in one pass: a table built by
        # pair rows and then transposed held two copies at once
        import tracemalloc

        from procgeom.sync import _merge_table

        rng = np.random.default_rng(3)
        n, k = 300, 16
        g = Pfsa([f"x{s}" for s in range(k)], [f"s{i}" for i in range(n)],
                 rng.integers(0, n, (n, k)), rng.dirichlet(np.ones(k), n))
        tracemalloc.start()
        try:
            table = _merge_table(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pdT = table[0]
        assert pdT.shape == (k, n * n) and pdT.flags.c_contiguous
        assert peak < 1.5 * pdT.nbytes, peak / pdT.nbytes

    def test_rejects_bad_input(self, g2, u3):
        with pytest.raises(AlphabetMismatch):
            reset_word(g2, u3)
        with pytest.raises(ValueError):
            reset_word()
