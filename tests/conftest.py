"""Suite-wide hypothesis settings.

Examples run the matcher and the solver, whose time per example varies with
the input and with the load of the machine, so no example has a deadline.
Tests that need more or fewer examples set max_examples themselves.
"""
from hypothesis import settings

settings.register_profile("abscon", deadline=None)
settings.load_profile("abscon")
