"""Rate, resource, and design analysis for all-photonic repeater chains."""

__version__ = "0.1.0"
