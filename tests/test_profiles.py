"""The hypothesis profiles that tests/conftest.py registers."""

from hypothesis import Phase, settings


def test_mutants_profile_fixes_the_draws_and_skips_shrinking():
    mutants = settings.get_profile("mutants")
    assert mutants.derandomize
    assert set(mutants.phases) == set(Phase) - {Phase.shrink}
    # registering it leaves the default profile as hypothesis ships it
    default = settings.get_profile("default")
    assert not default.derandomize and Phase.shrink in default.phases
