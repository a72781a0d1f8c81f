"""Fixtures shared by the test modules."""

import multiprocessing

import pytest

from shakebal import bench


@pytest.fixture(params=multiprocessing.get_all_start_methods())
def pools(request, monkeypatch):
    """Start the workers of every plan's pools by one multiprocessing start
    method, each method in turn; the list of each pool's ``max_workers``,
    in order."""
    sizes = []
    context = multiprocessing.get_context(request.param)
    executor = bench.ProcessPoolExecutor

    def started(max_workers):
        sizes.append(max_workers)
        return executor(max_workers, mp_context=context)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", started)
    return sizes
