"""Reading input files as UTF-8 text, with one wording for a file that
is not UTF-8."""

from __future__ import annotations

from pathlib import Path

__all__ = ["not_utf8_message", "read_utf8"]


def not_utf8_message(path, error: UnicodeDecodeError, offset: int = 0) -> str:
    """``cannot read PATH: not UTF-8 text (byte 0xff at offset 0)``.

    ``offset`` is where in the file the bytes that ``error`` decoded
    start, so the message names the offending byte's file offset.
    """
    return (
        f"cannot read {path}: not UTF-8 text "
        f"(byte {error.object[error.start]:#04x} at offset {offset + error.start})"
    )


def read_utf8(path) -> str:
    """The text of ``path``, decoded as UTF-8 as :meth:`Path.read_text`
    decodes it.  A file that is not UTF-8 raises ``ValueError`` with
    :func:`not_utf8_message`; an unreadable one raises ``OSError``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as error:
        raise ValueError(not_utf8_message(path, error)) from None
