#!/usr/bin/env python3
"""Target failure, degraded service, and rebuild with redundant classes.

Walks the durability machinery of the DAOS-like engine end to end:

1. store the same dataset three ways — striped (SX), mirrored (RP2) and
   erasure-coded (EC 2+1);
2. fail a storage target;
3. show who still serves reads (RP2 via its surviving replica, EC via
   XOR reconstruction, SX not at all);
4. rebuild the failed target from its peers and verify service is fully
   restored — including after losing the *other* replica.

Run:  python examples/failure_and_rebuild.py
"""

from repro.core import Ros2Config, Ros2System
from repro.daos.types import ObjectClass
from repro.sim import Environment

PAYLOAD = bytes((i * 17 + 3) % 256 for i in range(128 * 1024))  # 2 EC stripes


def main() -> None:
    env = Environment()
    system = Ros2System(env, Ros2Config(transport="rdma", client="host",
                                        n_ssds=4, data_mode=True))
    token = system.register_tenant("operator")
    engine = system.engine

    def demo(env):
        yield from system.start()
        session = yield from system.open_session(token)
        state = system.service.sessions[session.session_id]
        ns, ctx = state.ns, state.svc_ctx

        files = {}
        for name, oclass in [("sx", ObjectClass.SX), ("rp2", ObjectClass.RP2),
                             ("ec", ObjectClass.EC2P1)]:
            f = yield from ns.create(ctx, f"/{name}.bin",
                                     chunk_size=len(PAYLOAD), oclass=oclass)
            yield from f.write(ctx, 0, data=PAYLOAD)
            files[name] = f
        print(f"stored {len(PAYLOAD)} bytes as SX, RP2 and EC2P1 "
              f"across {engine.n_targets} targets")

        # Fail the primary target of each file's first chunk.
        chunk_key = b"\x00" * 8
        victims = {name: engine.target_for(f.oid, chunk_key).index
                   for name, f in files.items()}
        for idx in set(victims.values()):
            engine.fail_target(idx)
        print(f"failed targets: {sorted(set(victims.values()))}")

        for name, f in files.items():
            try:
                data = yield from f.read(ctx, 0, len(PAYLOAD))
                status = "OK (intact)" if data == PAYLOAD else "CORRUPT"
            except Exception as exc:
                status = f"unavailable ({type(exc).__name__})"
            print(f"  degraded read {name.upper():5s}: {status}")

        # Rebuild every failed target from surviving peers.
        for idx in sorted(set(victims.values())):
            n = yield from engine.rebuild_target(idx)
            print(f"rebuilt target {idx}: {n or 0} records resynced")

        # Prove the rebuild is real: fail the RP2 *survivor* and read again.
        survivor = engine.replicas_for(files["rp2"].oid, chunk_key)[1]
        engine.fail_target(survivor.index)
        data = yield from files["rp2"].read(ctx, 0, len(PAYLOAD))
        print("RP2 read served by the REBUILT replica:",
              "OK (intact)" if data == PAYLOAD else "CORRUPT")

    done = env.process(demo(env))
    env.run(until=done)
    print("failure/rebuild demo complete.")


if __name__ == "__main__":
    main()
