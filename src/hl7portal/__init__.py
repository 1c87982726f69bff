"""HL7 v2 clinical data portal.

An MLLP client toward HL7 servers, a line-protocol command server toward
clinic software, and a multilingual interpreter in between.
"""

__version__ = "0.1.0"
