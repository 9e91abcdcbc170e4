"""Named random streams: the values below are recorded, and every
stream must keep them."""

from ndc import rng as rngmod

CASES = [(0, 0), (7, 3), (2**31, 99)]


def test_restart_streams_keep_their_values():
    assert [rngmod.child_seed(seed, "restart", r) for seed, r in CASES] == [
        2930813686708464765, 9639375500419017596, 15720343662880142293]
    assert [rngmod.generator(seed, "restart", r).integers(1 << 30, size=3).tolist()
            for seed, r in CASES] == [[469687112, 322333538, 23634100],
                                      [658663763, 583206618, 838325773],
                                      [419710253, 99902131, 719045360]]
    # a repeated string token maps to the same integer every time
    assert rngmod.child_seed(5, "rep", 2, "train") == 14367346490040120029
    assert rngmod._token_to_int("restart") == rngmod._token_to_int("restart") == 986603696
