"""Chaos spec parsing and monkey behaviour."""

import pytest

from repro.fabric import ChaosConfig, ChaosMonkey, ChaosSpecError


class TestSpecParsing:
    def test_minimal_spec(self):
        config = ChaosConfig.parse("kill-worker=0.3")
        assert config.kill_worker == 0.3
        assert config.seed == 0
        assert config.max_kills is None
        assert config.enabled

    def test_full_spec(self):
        config = ChaosConfig.parse("kill-worker=0.5,seed=42,max-kills=3")
        assert config.kill_worker == 0.5
        assert config.seed == 42
        assert config.max_kills == 3

    def test_whitespace_tolerated(self):
        config = ChaosConfig.parse(" kill-worker = 0.1 , seed = 9 ")
        assert config.kill_worker == 0.1
        assert config.seed == 9

    def test_zero_probability_is_disabled(self):
        assert not ChaosConfig.parse("kill-worker=0").enabled

    @pytest.mark.parametrize(
        "spec",
        [
            "",                          # missing kill-worker
            "seed=3",                    # missing kill-worker
            "kill-worker",               # no value
            "kill-worker=high",          # not a float
            "kill-worker=1.5",           # out of range
            "kill-worker=-0.1",          # out of range
            "kill-worker=0.5,seed=x",    # bad seed
            "kill-worker=0.5,max-kills=-1",
            "kill-worker=0.5,frobnicate=1",  # unknown key
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ChaosSpecError):
            ChaosConfig.parse(spec)

    def test_spec_error_is_value_error(self):
        # The CLI catches ValueError; the subclass keeps that contract.
        assert issubclass(ChaosSpecError, ValueError)


class TestMonkey:
    def test_seeded_schedule_is_reproducible(self):
        config = ChaosConfig(kill_worker=0.5, seed=7)

        def flips():
            monkey = ChaosMonkey(config, max_kills=100)
            return [monkey.should_kill() for _ in range(50)]

        first, second = flips(), flips()
        assert first == second
        assert any(first) and not all(first)
        other = ChaosConfig(kill_worker=0.5, seed=8)
        monkey = ChaosMonkey(other, max_kills=100)
        assert [monkey.should_kill() for _ in range(50)] != first

    def test_kill_cap_retires_the_monkey(self):
        monkey = ChaosMonkey(ChaosConfig(kill_worker=1.0), max_kills=2)
        assert [monkey.should_kill() for _ in range(5)] == [
            True, True, False, False, False
        ]
        assert monkey.kills == 2

    def test_plan_kills_at_the_first_landing_beat_but_never_the_last(self):
        monkey = ChaosMonkey(ChaosConfig(kill_worker=1.0), max_kills=3)
        assert [monkey.plan(beats) for beats in (0, 1, 5, 2, 9, 9)] == [
            None, None, 1, 1, 1, None
        ]
        assert monkey.kills == 3

    def test_plan_is_the_seeded_coin_flips_per_beat(self):
        config = ChaosConfig(kill_worker=0.3, seed=7)
        planner = ChaosMonkey(config, max_kills=100)
        flipper = ChaosMonkey(config, max_kills=100)
        for beats in (10, 3, 10, 1, 6, 10, 10, 2):
            expected = next(
                (beat for beat in range(1, beats) if flipper.should_kill()),
                None,
            )
            assert planner.plan(beats) == expected
        assert planner.kills == flipper.kills > 0

    def test_disabled_config_never_kills(self):
        monkey = ChaosMonkey(ChaosConfig(kill_worker=0.0), max_kills=10)
        assert not any(monkey.should_kill() for _ in range(100))
        assert monkey.kills == 0
