"""Tests for the pipelining asyncio client's connection-loss paths."""

import asyncio
import gc

import pytest

from repro.serve import AsyncServeClient


class FakeWriter:
    """A ``StreamWriter`` stand-in whose ``drain`` can be held open."""

    def __init__(self, block: bool = False):
        self.block = block
        self.draining = asyncio.Event()
        self.release = asyncio.Event()

    def write(self, data: bytes) -> None:
        pass

    async def drain(self) -> None:
        if self.block:
            self.draining.set()
            await self.release.wait()
            raise ConnectionResetError("peer reset during drain")

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


def test_send_after_reader_exit_raises_instead_of_hanging():
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_eof()  # the server hung up
        client = AsyncServeClient(reader, FakeWriter(), secret=None)
        await asyncio.sleep(0)  # let the dispatcher see EOF and exit
        try:
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(client.send("ping"), timeout=2.0)
        finally:
            await client.aclose()

    asyncio.run(scenario())


def test_aclose_during_blocked_drain_leaves_no_unretrieved_future():
    unretrieved = []

    async def scenario():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: unretrieved.append(context["message"]))
        writer = FakeWriter(block=True)
        client = AsyncServeClient(asyncio.StreamReader(), writer, secret=None)
        send = asyncio.ensure_future(client.send("ping"))
        await writer.draining.wait()
        await client.aclose()  # fails the pending future mid-drain
        writer.release.set()  # ... and then drain() raises
        with pytest.raises(ConnectionResetError):
            await send
        del send
        gc.collect()

    asyncio.run(scenario())
    assert unretrieved == []
