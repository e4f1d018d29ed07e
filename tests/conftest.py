import pytest

import instances


@pytest.fixture
def copy_or_and():
    return instances.copy_or_and()


@pytest.fixture
def two_implications():
    return instances.two_implications()


@pytest.fixture
def copy_or():
    return instances.copy_or()


@pytest.fixture
def or_with_free_helper():
    return instances.or_with_free_helper()
