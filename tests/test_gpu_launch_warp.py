"""Unit tests for the kernel launch configuration."""

import pytest

from repro.gpu.errors import LaunchConfigurationError
from repro.gpu.launch import LaunchConfig


class TestLaunchConfig:
    def test_tile_size(self):
        cfg = LaunchConfig(block_size=128, items_per_thread=8)
        assert cfg.tile_size == 1024

    def test_rejects_zero_block(self):
        with pytest.raises(LaunchConfigurationError):
            LaunchConfig(block_size=0)

    def test_rejects_zero_items_per_thread(self):
        with pytest.raises(LaunchConfigurationError):
            LaunchConfig(items_per_thread=0)
