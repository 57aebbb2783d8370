//! Load-generator connections: the publisher at B0 and the subscriber
//! at B2, speaking the client side of the `xdn-node` wire protocol.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use xdn_broker::{wire, ClientId, Message};

const HELLO_CLIENT: u8 = 0x02;

/// A client connection's buffered writer.
pub struct Conn {
    writer: BufWriter<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects as client `id` and sends the hello.
    pub fn connect(addr: SocketAddr, id: ClientId) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        stream.set_nodelay(true)?;
        let mut hello = [0u8; 9];
        hello[0] = HELLO_CLIENT;
        hello[1..9].copy_from_slice(&id.0.to_be_bytes());
        let mut writer = BufWriter::with_capacity(64 * 1024, stream);
        writer.write_all(&hello)?;
        writer.flush()?;
        Ok(Conn {
            writer,
            buf: Vec::new(),
        })
    }

    /// Buffers one frame (sent at the next [`Conn::flush`]).
    pub fn send(&mut self, msg: &Message) -> std::io::Result<()> {
        self.buf.clear();
        wire::encode_into(msg, &mut self.buf);
        self.writer.write_all(&self.buf)
    }

    /// Writes every buffered frame to the socket.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }

    /// A second handle on the socket, for the reading side.
    pub fn reader(&self) -> std::io::Result<FrameReader> {
        let s = self.writer.get_ref().try_clone()?;
        Ok(FrameReader {
            inner: BufReader::with_capacity(64 * 1024, s),
            frame: Vec::new(),
        })
    }

    /// Closes both directions, ending the peer reader's stream.
    pub fn shutdown(&self) {
        let _ = self.writer.get_ref().shutdown(std::net::Shutdown::Both);
    }
}

/// Reads and decodes frames delivered to a client.
pub struct FrameReader {
    inner: BufReader<TcpStream>,
    frame: Vec<u8>,
}

impl FrameReader {
    /// The next message, or `None` at end of stream or on a malformed
    /// frame.
    pub fn next(&mut self) -> Option<Message> {
        let mut len = [0u8; 4];
        self.inner.read_exact(&mut len).ok()?;
        let n = u32::from_be_bytes(len) as usize;
        if n > wire::MAX_FRAME_BYTES {
            return None;
        }
        self.frame.clear();
        self.frame.extend_from_slice(&len);
        self.frame.resize(4 + n, 0);
        self.inner.read_exact(&mut self.frame[4..]).ok()?;
        wire::decode_frame(&self.frame).ok().map(|(m, _)| m)
    }

    /// A handle that ends this reader's stream when dropped.
    pub fn closer(&self) -> std::io::Result<Closer> {
        self.inner.get_ref().try_clone().map(Closer)
    }
}

/// Shuts a socket down when dropped, so a reader blocked on it returns
/// on every exit path of its owner.
pub struct Closer(TcpStream);

impl Drop for Closer {
    fn drop(&mut self) {
        let _ = self.0.shutdown(std::net::Shutdown::Both);
    }
}
