"""The host-speed probe: its clock, its window and its timer.

Run with: python3 -m pytest perfbench -q
"""

import signal
import time

import pytest

import hostspeed


def test_clock_excludes_probe_time():
    probe = hostspeed.Probe()
    start = probe.clock()
    probe.sample()
    assert probe.clock() - start < probe.busy_s / 10
    assert len(probe.durations) == 1


def test_scaled_by_the_median_kernel_time_in_the_window():
    probe = hostspeed.Probe()
    probe.times = [0.0, 1.0, 2.0, 10.0]
    probe.durations = [0.002, 0.004, 0.008, 0.001]
    ref = hostspeed.REFERENCE_S
    # only the sample at 1.0 lies within WINDOW_S of [1.0, 1.2]
    assert probe.scaled(1.0, 1.2) == pytest.approx(0.2 * ref / 0.004)
    # the samples at 1.0 and 2.0 lie within WINDOW_S of [0.6, 1.5]
    assert probe.scaled(0.6, 1.5) == pytest.approx(0.9 * ref / 0.006)
    # none lies near [5.0, 5.5]: the median of all four is used
    assert probe.scaled(5.0, 5.5) == pytest.approx(0.5 * ref / 0.003)


def test_timer_samples_until_stopped_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    probe = hostspeed.Probe()
    probe.start()
    end = time.perf_counter() + 3 * hostspeed.INTERVAL_S
    while time.perf_counter() < end:
        pass
    probe.stop()
    count = len(probe.durations)
    assert count >= 3
    time.sleep(2 * hostspeed.INTERVAL_S)
    assert len(probe.durations) == count
    assert signal.getsignal(signal.SIGALRM) is previous
