"""Quantized scoring systems derived from float search profiles."""

from .guardrails import GuardrailCounters
from .msv_profile import MSVByteProfile
from .quantized import (
    I16_NEG_INF,
    U8_ZERO,
    sat_add_i16,
    sat_add_u8,
    sat_sub_u8,
)
from .vit_profile import ViterbiWordProfile

__all__ = [
    "GuardrailCounters",
    "MSVByteProfile",
    "ViterbiWordProfile",
    "sat_add_u8",
    "sat_sub_u8",
    "sat_add_i16",
    "U8_ZERO",
    "I16_NEG_INF",
]
