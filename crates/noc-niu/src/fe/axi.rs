//! AXI initiator front end.

use super::{deliver_one, FrontEnd, Initiator};
use noc_protocols::axi::{AxiB, AxiPort, AxiR, AxiSocket};
use noc_transaction::{Opcode, StreamId, TransactionRequest, TransactionResponse};
use std::collections::VecDeque;

/// Hosts an [`AxiMaster`](noc_protocols::axi::AxiMaster); socket IDs are
/// renamed onto NoC tags by the back end, so pair this with
/// [`noc_transaction::OrderingModel::IdBased`].
pub type AxiInitiator = Initiator<AxiSocket>;

/// Responses waiting for the R and B channels, each drained on its own.
#[derive(Debug, Clone, Default)]
pub struct AxiPending {
    r: VecDeque<AxiR>,
    b: VecDeque<AxiB>,
}

impl FrontEnd for AxiSocket {
    type Pending = AxiPending;

    fn deliver(pending: &mut AxiPending, port: &mut AxiPort) {
        deliver_one(&mut pending.r, &mut port.r);
        deliver_one(&mut pending.b, &mut port.b);
    }

    fn pull_request(port: &mut AxiPort) -> Option<TransactionRequest> {
        // Reads and writes arrive on independent channels. One pull
        // takes one request, AR before AW: a waiting read always goes
        // first, and a write waits until AR is empty.
        if let Some(ar) = port.ar.take() {
            let opcode = if ar.exclusive {
                Opcode::ReadExclusive
            } else {
                Opcode::Read
            };
            return Some(
                TransactionRequest::builder(opcode)
                    .address(ar.addr)
                    .burst(ar.burst)
                    .stream(StreamId::new(ar.id))
                    .build()
                    .expect("agent produces valid requests"),
            );
        }
        let aw = port.aw.take()?;
        let opcode = if aw.exclusive {
            Opcode::WriteExclusive
        } else {
            Opcode::Write
        };
        Some(
            TransactionRequest::builder(opcode)
                .address(aw.addr)
                .burst(aw.burst)
                .stream(StreamId::new(aw.id))
                .data(aw.data)
                .build()
                .expect("agent produces valid requests"),
        )
    }

    fn push_response(
        pending: &mut AxiPending,
        stream: StreamId,
        opcode: Opcode,
        resp: TransactionResponse,
    ) {
        if opcode.is_read() {
            pending.r.push_back(AxiR {
                id: stream.raw(),
                status: resp.status(),
                data: resp.data().to_vec(),
            });
        } else {
            pending.b.push_back(AxiB {
                id: stream.raw(),
                status: resp.status(),
            });
        }
    }

    fn holds_traffic(pending: &AxiPending, port: &AxiPort) -> bool {
        !pending.r.is_empty() || !pending.b.is_empty() || port.ar.valid() || port.aw.valid()
    }

    fn responding(port: &AxiPort) -> bool {
        port.r.valid() || port.b.valid()
    }
}
