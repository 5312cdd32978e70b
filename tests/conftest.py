import pytest

from cardeal import PAPER_PARAMS, Parameters, binary_design, build_protocol, parse_announcement, protocols

FIVE_HAND_TEXT = "012 034 056 135 246"
SEVEN_HAND_TEXT = "012 034 056 135 146 236 245"


@pytest.fixture(scope="session")
def p331():
    return Parameters(3, 3, 1)


@pytest.fixture(scope="session")
def p431():
    return Parameters(4, 3, 1)


@pytest.fixture(scope="session")
def five_hand(p331):
    return parse_announcement(FIVE_HAND_TEXT, p331)


@pytest.fixture(scope="session")
def seven_hand(p331):
    return parse_announcement(SEVEN_HAND_TEXT, p331)


@pytest.fixture(scope="session")
def binary3():
    return binary_design(3)


@pytest.fixture
def cold_hand_lists():
    """Empty the paper deal's per-hand announcement lists, so the test's first build fills them.

    Builds share those lists for the life of the process, so a test of the
    first fill asks for this fixture rather than relying on test order.
    """
    protocols._HAND_LISTS.clear()


@pytest.fixture(params=["cold", "warm"])
def hand_lists(request, cold_hand_lists):
    """The per-hand lists left empty ("cold") or filled by one build ("warm") before the test's own builds."""
    if request.param == "warm":
        build_protocol("uniform60", PAPER_PARAMS)
    return request.param
