"""Counter-based trial streams."""

import pytest

from girthlab.rng import trial_rng, trial_streams


@pytest.mark.parametrize("seed", [0, -1, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 5, 1082])
def test_trial_uniforms_equal_fresh_streams(seed, n):
    streams = [0, 1, 4095, 10**6]
    got = [gen.random(n) for gen in trial_streams(seed, streams)]
    assert len(got) == len(streams)
    for t, u in zip(streams, got):
        want = trial_rng(seed, t).random(n)
        assert u.dtype == want.dtype and u.shape == (n,)
        assert u.tobytes() == want.tobytes()


def test_trial_uniforms_order_and_repeats():
    # each stream starts afresh, whatever was drawn before it
    a, b, c = [gen.random(7) for gen in trial_streams(9, [4, 2, 4])]
    assert a.tobytes() == c.tobytes() == trial_rng(9, 4).random(7).tobytes()
    assert b.tobytes() == trial_rng(9, 2).random(7).tobytes()
    assert list(trial_streams(3, range(0))) == []


@pytest.mark.parametrize("a", [0, 1, 3, 5, 64])
def test_stream_drawn_in_pieces_equals_whole(a):
    # a trial may stop drawing once it has read enough, or draw on later:
    # the doubles it reads are the same prefix of its stream either way
    streams = [0, 3, 2**40]
    for b in (1, 77):
        for t, gen in zip(streams, trial_streams(-5, streams)):
            head, rest = gen.random(a), gen.random(b)
            whole = trial_rng(-5, t).random(a + b)
            assert head.tobytes() + rest.tobytes() == whole.tobytes()


def test_trial_rng_keys_are_exact_64_bit_words():
    # a seed is taken modulo 2**64 and keyed exactly: -1 is 2**64 - 1, and
    # seeds at or past 2**63 do not collapse onto one another or onto 0
    def key(seed):
        return trial_rng(seed, 7).bit_generator.state["state"]["key"].tolist()

    assert key(-1) == key(2**64 - 1) == [2**64 - 1, 7]
    assert key(2**63 + 5) == [2**63 + 5, 7]
    draws = {seed: trial_rng(seed, 7).random(4).tobytes() for seed in (0, -1, 2**63, 2**63 + 5)}
    assert len(set(draws.values())) == 4
